(** Machine presets: the three Intel machines of Table 1 / Figure 1 and
    the deeper simulated hierarchies Arch-I / Arch-II of Figure 12.

    Every preset takes [?scale] (default 1): cache capacities are
    divided by [scale] (floored at one set).  The experiments run at
    [scale = 16] with proportionally smaller working sets so that a
    software simulator can execute the full suite; the ratio
    data-size : cache-size, which drives all the paper's effects, is
    preserved.  [scale] never changes topology, associativity, line
    size or latencies. *)

val harpertown : ?scale:int -> unit -> Topology.t
val nehalem : ?scale:int -> unit -> Topology.t
val dunnington : ?scale:int -> unit -> Topology.t

(** Figure 12(a): 16 cores, four on-chip levels (L1/L2/L3/L4). *)
val arch_i : ?scale:int -> unit -> Topology.t

(** Figure 12(b): 32 cores, five on-chip levels. *)
val arch_ii : ?scale:int -> unit -> Topology.t

(** [dunnington_scaled_cores ?scale ~num_cores ()] extends Dunnington
    with extra 6-core sockets, as in the Figure 17 core-scaling study
    (12, 18, 24 cores).
    @raise Invalid_argument unless [num_cores] is a positive multiple
    of 6. *)
val dunnington_scaled_cores : ?scale:int -> num_cores:int -> unit -> Topology.t

(** [scale_caches ~scale t] divides every cache capacity of [t] by
    [scale] with the presets' rounding: whole sets, at least one.  The
    [scale] rule for topology files. *)
val scale_caches : scale:int -> Topology.t -> Topology.t

(** [halve_caches t] cuts every cache capacity in half (Figure 19). *)
val halve_caches : Topology.t -> Topology.t

(** The three commercial machines, in paper order. *)
val commercial : ?scale:int -> unit -> Topology.t list

(** Find a preset by name ("harpertown", "nehalem", "dunnington",
    "arch-i", "arch-ii"), case-insensitive.
    @raise Not_found for unknown names. *)
val by_name : ?scale:int -> string -> Topology.t
