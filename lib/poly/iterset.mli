(** Explicit finite sets of iteration vectors.

    Iteration groups (the unit of distribution in the paper) are
    arbitrary finite subsets of an iteration domain; this module stores
    them compactly by encoding each vector into a single integer key
    relative to a bounding box.  All binary operations require both
    sets to share the same encoder (i.e. come from the same domain
    bounding box). *)

type encoder

(** [encoder_of_box los his] builds an encoder for vectors with
    [los.(j) <= iv.(j) <= his.(j)].
    @raise Invalid_argument on empty ranges or overflow. *)
val encoder_of_box : int array -> int array -> encoder

(** Encoder covering every point of a domain (its outer bounding box). *)
val encoder_of_domain : Domain.t -> encoder

val encode : encoder -> int array -> int
val decode : encoder -> int -> int array

type t

val empty : encoder -> t
val of_list : encoder -> int array list -> t

(** [of_sorted_keys enc keys] is the set of [keys], which must be
    strictly ascending (checked in one pass).  The array is taken, not
    copied: the caller must not modify it afterwards.
    @raise Invalid_argument if [keys] is not strictly ascending. *)
val of_sorted_keys : encoder -> int array -> t

(** [of_domain enc d] collects all points of [d]. *)
val of_domain : encoder -> Domain.t -> t

val encoder : t -> encoder
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int array -> bool
val add : t -> int array -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool

(** Iterate in lexicographic order; the array is fresh per call. *)
val iter : (int array -> unit) -> t -> unit

(** [decode_into s i iv] writes the [i]-th point of [s] (0-based, in
    lexicographic order) into [iv], allocating nothing.
    @raise Invalid_argument if [i] is out of range or [iv] has the
    wrong dimension. *)
val decode_into : t -> int -> int array -> unit

val fold : ('a -> int array -> 'a) -> 'a -> t -> 'a
val to_list : t -> int array list

(** [split_at n s] returns the first [n] points (lexicographically)
    and the rest. *)
val split_at : int -> t -> t * t

(** Smallest (lexicographically first) key; [max_int] when empty. *)
val min_key : t -> int

(** Raw sorted keys (for fast hashing / grouping). *)
val keys : t -> int array

val of_keys : encoder -> int array -> t
val pp : t Fmt.t
