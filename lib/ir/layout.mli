(** Memory layout: assign each array a base byte address.

    Arrays are placed sequentially, each base rounded up to a multiple
    of [align].  Choosing [align] as the lcm of the cache-line size and
    the data-block size guarantees the paper's requirement that blocks
    never cross array boundaries (each array starts a new block). *)

type t

(** [make ~align arrays].
    @raise Invalid_argument if [align <= 0]. *)
val make : align:int -> Array_decl.t list -> t

(** [of_program ~align p] lays out all arrays of [p]. *)
val of_program : align:int -> Program.t -> t

val align : t -> int

(** Base byte address of an array.  @raise Not_found when absent. *)
val base : t -> string -> int

(** Declaration of an array.  @raise Not_found when absent. *)
val decl : t -> string -> Array_decl.t

(** Total bytes spanned (end of last array). *)
val total_bytes : t -> int

(** [elem_addr t name idx] is the byte address of element [idx]. *)
val elem_addr : t -> string -> int array -> int

(** [ref_addr_fn t r] is [ref_addr t r] with the layout entry resolved
    once: the returned function hashes nothing and allocates nothing
    per call, and raises the same [Invalid_argument] for a subscript
    out of range.  Use it when one reference's address is evaluated
    for many iteration points (tagging, dependence scans, streams). *)
val ref_addr_fn : t -> Reference.t -> int array -> int

(** [ref_addr t r iv] is the byte address touched by reference [r] at
    iteration [iv]. *)
val ref_addr : t -> Reference.t -> int array -> int

val arrays : t -> Array_decl.t list
val pp : t Fmt.t
