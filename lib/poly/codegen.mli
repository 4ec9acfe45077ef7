(** Code generation for explicit iteration sets.

    Stand-in for the Omega library's [codegen] utility: given the set
    of iterations in an iteration group, produce a compact union of
    rectangular boxes and emit a C-like loop nest that enumerates
    exactly those iterations, each box in lexicographic order.  It
    serves the legality check and C emission; the simulator's streams
    walk a group's {!Iterset} directly and never decompose it. *)

type box = (int * int) array
(** Per-dimension inclusive [lo, hi] ranges. *)

type t = { depth : int; boxes : box list }

(** [decompose s] covers [s] by disjoint boxes using a greedy maximal-
    box extraction.  The boxes partition [s]: their disjoint union
    enumerates exactly the points of [s]. *)
val decompose : Iterset.t -> t

(** Total number of points covered. *)
val cardinal : t -> int

(** [enumerate t] lists the covered points, lexicographically per box,
    boxes in extraction order. *)
val enumerate : t -> int array list

(** Emit a C-like loop nest ([for (i0 = lo; i0 <= hi; i0++) ...]) with
    one nest per box and a [body] statement string at the innermost
    level. *)
val emit : ?names:string array -> body:string -> t -> string

val pp : t Fmt.t
