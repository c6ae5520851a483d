type state = Active | Draining | Decommissioned

type t = {
  id : int;
  slot : int;
  opages : int;
  birth_level : int;
  mutable state : state;
}

module Registry = struct
  type mdisk = t

  type t = {
    opages_per_mdisk : int;
    slots : int;
    by_id : (int, mdisk) Hashtbl.t;
    by_slot : mdisk option array;
        (* the live (active or draining) minidisk in each slot; a slot is
           freed only on decommission, so at most one live owner *)
    mutable free_slots : int list;
    mutable next_id : int;
    mutable active : int;
    mutable created : int;
    mutable decommissioned : int;
    mutable generation : int;
        (* bumped on every membership/state mutation; lets callers cache
           derived views of the active set (the bulk-aging stream's
           LBA-translation table) and rebuild only when stale *)
  }

  let create ~opages_per_mdisk ~slots =
    if opages_per_mdisk <= 0 then
      invalid_arg "Minidisk.Registry.create: opages_per_mdisk";
    if slots <= 0 then invalid_arg "Minidisk.Registry.create: slots";
    {
      opages_per_mdisk;
      slots;
      by_id = Hashtbl.create 64;
      by_slot = Array.make slots None;
      free_slots = List.init slots Fun.id;
      next_id = 0;
      active = 0;
      created = 0;
      decommissioned = 0;
      generation = 0;
    }

  let opages_per_mdisk t = t.opages_per_mdisk

  let create_mdisk t ~birth_level =
    match t.free_slots with
    | [] -> None
    | slot :: rest ->
        t.free_slots <- rest;
        let mdisk =
          {
            id = t.next_id;
            slot;
            opages = t.opages_per_mdisk;
            birth_level;
            state = Active;
          }
        in
        t.next_id <- t.next_id + 1;
        t.active <- t.active + 1;
        t.created <- t.created + 1;
        t.generation <- t.generation + 1;
        Hashtbl.add t.by_id mdisk.id mdisk;
        let live = Some mdisk in
        t.by_slot.(slot) <- live;
        live

  let decommission t id =
    match Hashtbl.find_opt t.by_id id with
    | None -> raise Not_found
    | Some mdisk ->
        (match mdisk.state with
        | Decommissioned ->
            invalid_arg
              "Minidisk.Registry.decommission: already decommissioned"
        | Active -> t.active <- t.active - 1
        | Draining -> ());
        mdisk.state <- Decommissioned;
        t.by_slot.(mdisk.slot) <- None;
        t.free_slots <- mdisk.slot :: t.free_slots;
        t.decommissioned <- t.decommissioned + 1;
        t.generation <- t.generation + 1;
        mdisk

  let begin_drain t id =
    match Hashtbl.find_opt t.by_id id with
    | None -> raise Not_found
    | Some mdisk ->
        if mdisk.state <> Active then
          invalid_arg "Minidisk.Registry.begin_drain: not active";
        mdisk.state <- Draining;
        t.active <- t.active - 1;
        t.generation <- t.generation + 1;
        mdisk

  let draining t =
    Hashtbl.fold
      (fun _ mdisk acc -> if mdisk.state = Draining then mdisk :: acc else acc)
      t.by_id []
    |> List.sort (fun a b -> compare a.id b.id)

  let find t id = Hashtbl.find_opt t.by_id id

  let live_in_slot t slot =
    if slot < 0 || slot >= t.slots then None else t.by_slot.(slot)

  let active t =
    Hashtbl.fold
      (fun _ mdisk acc -> if mdisk.state = Active then mdisk :: acc else acc)
      t.by_id []
    |> List.sort (fun a b -> compare a.id b.id)

  let active_count t = t.active
  let generation t = t.generation
  let active_opages t = t.active * t.opages_per_mdisk
  let created_total t = t.created
  let decommissioned_total t = t.decommissioned

  let engine_logical t mdisk ~lba =
    if lba < 0 || lba >= mdisk.opages then
      invalid_arg "Minidisk: LBA outside minidisk";
    (mdisk.slot * t.opages_per_mdisk) + lba
end
