include Monolithic

let create = Monolithic.create ~retirement:Shrink
