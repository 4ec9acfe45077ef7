(** Parser for Valgrind-Lackey text traces.

    One record per line:
    {v [CORE:] K ADDR[,SIZE] [@TIME] v}
    where [K] is [I] (instruction fetch), [L] (load), [S] (store) or
    [M] (modify = load + store) in the Lackey dialect, or the bare
    [R]/[W] read/write form.  [ADDR] is hexadecimal with or without a
    [0x] prefix (Lackey prints bare hex); [SIZE] defaults to 1.

    The optional [CORE:] prefix and [@TIME] suffix are this project's
    multi-core extension, consumed by {!Ingest}'s tagged interleaving.

    Blank lines, [#] comments, and Valgrind's own [==pid==]/[--pid--]
    chatter parse as noise — not malformed records, in strict mode
    too. *)

type kind = Instr | Load | Store | Modify

(** The fields of one {!record}, which {!parse} overwrites in place: a
    caller owns one and reads it after each [Record]. *)
type fields = {
  mutable kind : kind;
  mutable addr : int;
  mutable size : int;
  mutable core : int;  (** [CORE:] tag, or -1 when absent *)
  mutable time : int;  (** [@TIME] tag, or -1 when absent *)
}

type record = {
  kind : kind;
  addr : int;
  size : int;  (** bytes touched, starting at [addr] *)
  core : int option;  (** [CORE:] tag, when present *)
  time : int option;  (** [@TIME] tag, when present *)
}

val fields : unit -> fields

type line =
  | Noise
  | Record  (** the record is in the caller's {!fields} *)
  | Malformed of string  (** the reason (the caller adds the line number) *)

(** [parse f b pos len] parses the line [Bytes.sub b pos len] in place,
    allocating nothing unless the line is malformed or one of its
    numbers is written with a sign, a radix prefix, an underscore or
    more digits than an [int] always holds.
    @raise Invalid_argument when [pos] and [len] do not denote a valid
    range of [b]. *)
val parse : fields -> Bytes.t -> int -> int -> line

(** {!parse} of a whole string, with the record copied out:
    [Ok None] for noise lines, [Error msg] for malformed records. *)
val parse_line : string -> (record option, string) result
