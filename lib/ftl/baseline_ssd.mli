(** The baseline datacenter SSD the paper argues against: a
    {!Monolithic} drive with the [Brick] retirement policy.

    Monolithic fixed-capacity volume; firmware retires a whole erase block
    as soon as its weakest page can no longer be protected by the default
    ECC, replacing it from over-provisioned spare space; and the device
    bricks (goes read-only) once retired blocks exceed
    {!Monolithic.fail_threshold} (2.5 %, per the NetApp field study the
    paper cites [14]). *)

include Monolithic.DRIVE
