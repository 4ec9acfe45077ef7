(** Line-oriented trace input.

    A {!source} can be reopened any number of times — {!Ingest} reads
    a trace to count it, then again to replay it — and gzip-compressed
    files are detected by their magic bytes (not the extension) and
    decompressed through the system [gzip], so callers never care
    whether a trace is compressed.

    Lines are handed out as slices of one buffer per handle, refilled
    in blocks, so reading a line allocates nothing; a [Text] source is
    sliced in place. *)

type source =
  | File of string  (** path to a plain or gzip-compressed trace *)
  | Text of string  (** in-memory trace (the daemon's [trace] op) *)

type chan

(** Open a fresh read handle on the source.
    @raise Sys_error when a [File] does not exist or is not a regular
    file (a pipe, say, which cannot be reopened). *)
val open_source : source -> chan

(** Advance to the next line; [false] at end of input.  The line, without
    its terminator ([\r\n] is handled), is then the {!line_len} bytes of
    {!line_buf} from {!line_pos}, valid until the next call.
    @raise Sys_error naming the file when a gzip trace's decompressor
    fails (truncated or corrupt input). *)
val next : chan -> bool

val line_buf : chan -> Bytes.t
val line_pos : chan -> int
val line_len : chan -> int

(** Release the handle, at any point; idempotent.  An early close never
    reports a decompressor failure. *)
val close : chan -> unit
