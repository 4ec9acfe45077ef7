(** Tagging iterations and building iteration groups (§3.3).

    The tag of an iteration is the set of data blocks its references
    touch; iterations with equal tags form an iteration group. *)

open Ctam_poly
open Ctam_ir

type grouping = {
  nest : Nest.t;
  block_map : Block_map.t;
  encoder : Iterset.encoder;        (** over the nest's bounding box *)
  groups : Iter_group.t array;      (** ids are indices: groups.(i).id = i *)
}

(** Sorted, deduplicated blocks touched by one iteration. *)
val blocks_of_iteration : Block_map.t -> Nest.t -> int array -> int list

(** Tag of one iteration as a bitset over all data blocks. *)
val tag_of_iteration : Block_map.t -> Nest.t -> int array -> Bitset.t

(** [group ?tile nest block_map] enumerates the nest's domain and
    partitions it into iteration groups.  Groups are ordered by their
    first iteration (lexicographic).

    [tile] coalesces iterations into iteration-space tiles before
    tagging: iterations with equal [iv.(k) / tile.(k)] form one unit,
    a unit's tag is the union of its members' tags, and units are
    grouped by tag equality.  This bounds the group count for access
    patterns whose per-iteration tags are all distinct (e.g.
    transposed sweeps) while keeping tags selective in every
    dimension.  Without [tile] each iteration is its own unit. *)
val group : ?tile:int array -> Nest.t -> Block_map.t -> grouping

(** [group_capped ~max_groups nest bm] grows a uniform coalescing tile
    until at most [max_groups] groups result (compile-time safeguard;
    tags stay exact, just coarser).  Tag-equality grouping still runs
    afterwards, so patterns with naturally large groups are returned
    unchanged. *)
val group_capped : max_groups:int -> Nest.t -> Block_map.t -> grouping

(** Sum of group sizes — equals the nest trip count (the groups
    partition the iteration space). *)
val total_iterations : grouping -> int

val pp : grouping Fmt.t
