(** CVSS-style capacity-variant SSD (Jiao et al., FAST '24): the prior
    work the paper positions ShrinkS against.  A {!Monolithic} drive with
    the [Shrink] retirement policy.

    Identical wear physics and block-retirement trigger as the baseline,
    but instead of bricking, the device shrinks: each retired block
    removes a block's worth of LBAs from the top of the address space,
    and the host file system must absorb the loss out of its free space.
    The drive therefore lives until utilization leaves no room to shrink
    further ({!Monolithic.min_capacity_fraction}, 50 % as in the paper's
    CVSS discussion).

    The two deltas Salamander claims over this design are visible here by
    construction: retirement is block- (not page-) granular, so strong
    pages die with their block's weakest one; and the shrink consumes
    *host* free space rather than being absorbed by a distributed system's
    redundancy. *)

include Monolithic.DRIVE
