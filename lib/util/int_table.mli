(** Open-addressing hash maps from non-negative ints to ints.

    Keys and values sit side by side in one flat int array, so an
    entry costs no allocation and a lookup usually touches one cache
    line.  Tables only grow: there is no removal. *)

type t

val create : unit -> t

(** Number of keys. *)
val length : t -> int

(** [slot t k] is the slot holding key [k], inserting [k] with value
    [-1] if it is absent.  A slot stays valid until the next insertion.
    @raise Invalid_argument if [k < 0]. *)
val slot : t -> int -> int

val value : t -> int -> int
val set_value : t -> int -> int -> unit
