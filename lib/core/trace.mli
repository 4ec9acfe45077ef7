(** Building simulator access streams from iteration orders.

    Every builder returns a generator-backed
    {!Ctam_cachesim.Engine.stream} that emits, for each point in order,
    one encoded access per reference of the nest body (program order:
    reads of each statement, then its write).  A dense phase is such a
    stream forced with {!Ctam_cachesim.Engine.force_stream}.  The
    cursors poll the request deadline once per point and allocate
    nothing per point. *)

open Ctam_poly
open Ctam_ir
open Ctam_blocks

(** [of_iters layout nest iters]: the points in list order (Base+
    chunks, permuted and tiled).  The list stays the backing store. *)
val of_iters :
  Layout.t -> Nest.t -> int array list -> Ctam_cachesim.Engine.stream

(** [of_iterset layout nest s]: the set's points in lexicographic
    order, decoded from its keys into one vector the cursor reuses
    (Base chunks and iteration groups). *)
val of_iterset :
  Layout.t -> Nest.t -> Iterset.t -> Ctam_cachesim.Engine.stream

(** [of_groups layout nest gs]: {!of_iterset} of each group's
    iterations, chained in list order. *)
val of_groups :
  Layout.t -> Nest.t -> Iter_group.t list -> Ctam_cachesim.Engine.stream

(** [serial layout nest]: the whole nest in program order.  A domain
    odometer regenerates it on every run; nothing is materialized. *)
val serial : Layout.t -> Nest.t -> Ctam_cachesim.Engine.stream
