(** Growable int arrays: the append-only buffers the compile passes
    fill once per iteration point instead of consing lists. *)

type t = { mutable data : int array; mutable length : int }
(** The elements are [data.(0) .. data.(length - 1)]; the rest of
    [data] is spare capacity.  Hot loops read [data] directly, after
    their last {!push}: growing replaces the array. *)

val create : unit -> t

(** Drop every element, keeping the capacity. *)
val clear : t -> unit

val push : t -> int -> unit

(** [sub v pos len] copies elements [pos .. pos + len - 1].
    @raise Invalid_argument outside [0 .. length]. *)
val sub : t -> int -> int -> int array
