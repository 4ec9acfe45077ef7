(** Building simulator access streams from iteration orders. *)

open Ctam_poly
open Ctam_ir
open Ctam_blocks

(** [of_iters layout nest iters] emits, for each iteration in order,
    one encoded access per reference of the nest body (program order:
    reads of each statement, then its write). *)
val of_iters : Layout.t -> Nest.t -> int array list -> int array

(** [of_group layout nest g] enumerates the group's iterations in
    lexicographic order. *)
val of_group : Layout.t -> Nest.t -> Iter_group.t -> int array

(** [of_groups layout nest gs] concatenates the groups in list order. *)
val of_groups : Layout.t -> Nest.t -> Iter_group.t list -> int array

(** Whole-nest sequential stream in original program order. *)
val serial : Layout.t -> Nest.t -> int array

(** [of_iterset layout nest s] lexicographic stream of a set. *)
val of_iterset : Layout.t -> Nest.t -> Iterset.t -> int array

(** {2 Lazy streams}

    Generator-backed {!Ctam_cachesim.Engine.stream}s yielding exactly
    the access sequences of the eager builders above, without
    materializing the access array. *)

(** Lazy {!of_iters}: the iteration list stays the backing store; only
    the (per-reference larger) access expansion is on demand. *)
val stream_of_iters :
  Layout.t -> Nest.t -> int array list -> Ctam_cachesim.Engine.stream

(** Lazy {!of_iterset}: walks the set's keys in order, decoding each
    into one vector the cursor reuses. *)
val stream_of_iterset :
  Layout.t -> Nest.t -> Iterset.t -> Ctam_cachesim.Engine.stream

(** Lazy {!of_group}: walks a {!Ctam_poly.Codegen} box decomposition
    of the group's iteration set in global lexicographic order. *)
val stream_of_group :
  Layout.t -> Nest.t -> Iter_group.t -> Ctam_cachesim.Engine.stream

(** Lazy {!of_groups}: chains the groups in list order. *)
val stream_of_groups :
  Layout.t -> Nest.t -> Iter_group.t list -> Ctam_cachesim.Engine.stream

(** Lazy {!serial}: a domain odometer regenerates program order on
    every run; nothing is materialized. *)
val stream_serial : Layout.t -> Nest.t -> Ctam_cachesim.Engine.stream
