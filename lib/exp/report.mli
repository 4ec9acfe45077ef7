(** ASCII tables for experiment output, and the report value every
    experiment returns. *)

(** A table: column headers and string rows, left-aligned first column,
    right-aligned others.  With [?geomean:label] a trailing summary row
    is appended holding the geometric mean of each column's positive
    numeric cells; zero/absent/non-numeric cells are skipped (never a
    nan), a "*" suffix marks columns with skipped cells (footnoted
    below the table) and a column with no usable cell gets "-".  No row
    is added when [rows] is empty. *)
val table :
  ?geomean:string -> header:string list -> string list list -> string

(** Geometric mean (the usual summary for normalized ratios).
    @raise Invalid_argument on empty or non-positive input. *)
val geomean : float list -> float

(** A titled section with underline, for experiment logs. *)
val section : string -> string

(** {1 Reports} *)

(** How a value column prints its cells, e.g. ["%.2f"]. *)
type cell = (float -> string, unit, string) format

(** [f2] is ["%.2f"], the format of every normalized-cycles column. *)
val f2 : cell

type table = {
  heading : string option;  (** a {!section} above the table *)
  labels : string list;  (** headers of the leading label columns *)
  columns : (string * cell) list;  (** header and format of each value column *)
  rows : (string list * float list) list;  (** each row's labels, then its values *)
  geomean : bool;
      (** append a "geomean" row: each column's {!geomean} over its
          unrounded values, in row order, printed in the column's format *)
}

type block = Table of table | Text of string  (** a line of text *)

(** An experiment's result: a title and its blocks, numbers kept as
    numbers until {!render}.  Reports hold no functions, so [=] compares
    them. *)
type t = { title : string; blocks : block list }

(** [render r] is [section r.title], then each block: a table through
    {!table}, a text as its line. *)
val render : t -> string
