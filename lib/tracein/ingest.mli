(** Turning external access traces into engine streams.

    A trace is read in two passes: a counting pass ({!scan}) sizes the
    per-core streams (the {!Ctam_cachesim.Engine.cursor} contract
    needs exact lengths) and finds the address range for rebasing; the
    cursors then hand the accesses out in fixed-size chunks, so a
    multi-gigabyte trace never materializes.  The cursors of one replay
    share readers, so the input is parsed once for all cores, in
    bounded memory, and the engine may interleave refills across cores
    in any order. *)

exception Error of string
(** Malformed input (with a line position) or invalid options. *)

type interleave =
  | Round_robin
      (** deal records across the [cores] in arrival order; core tags
          are ignored *)
  | Tagged
      (** each record goes to its [CORE:] tag (untagged records to
          core 0); strict mode rejects out-of-range tags and
          per-core backwards [@TIME] stamps *)

val interleave_to_string : interleave -> string

type options = {
  cores : int;  (** number of per-core streams to produce *)
  instr : bool;  (** include [I] instruction fetches (default: drop) *)
  lossy : bool;
      (** count malformed lines instead of failing (strict default) *)
  fold_bits : int option;
      (** fold addresses into a [2^bits]-byte window (after rebasing) *)
  rebase : bool;  (** subtract the smallest address in the trace *)
  split : int option;
      (** emit one access per [split]-byte line an access's
          [addr, addr+size) span touches (default: base address only);
          a record whose span runs past [max_int] or covers more than
          {!max_split_lines} lines is then malformed *)
  interleave : interleave;
}

(** The most [split]-byte lines one record's span may cover: 65536,
    far wider than any single access Lackey records.  The counting
    pass sizes a span in O(1), so validating a trace costs O(lines)
    whatever its spans; the bound keeps the cursors, which expand each
    span into its accesses, from doing unbounded work per record. *)
val max_split_lines : int

(** One core, strict, no instruction fetches, no address transforms,
    round-robin. *)
val default : options

(** @raise Error on options no trace can satisfy: fewer than one core,
    fold bits outside 1..60, a split granularity below one. *)
val validate : options -> unit

type scan = {
  scanned_lines : int;  (** input lines read (including noise) *)
  records : int;  (** well-formed records *)
  malformed : int;  (** lines dropped in lossy mode *)
  per_core : int array;  (** encoded accesses each core will stream *)
  min_addr : int;  (** smallest raw byte address (0 on an empty trace) *)
  max_addr : int;  (** largest raw byte address (-1 on an empty trace) *)
}

(** The counting pass.  @raise Error in strict mode on malformed
    lines, and on invalid options in every mode. *)
val scan : options -> Reader.source -> scan

(** The accesses one replay's queues hold together: 2^18 (2 MB). *)
val queue_budget : int

(** Per-core generator-backed streams.  Pass [?scan] to reuse a
    counting pass; otherwise one is run.  Strict-mode parse errors
    surface as [Error] from inside the engine's refills, and so does an
    input that ends before the scan's count (the trace changed since
    the scan); the engine reads no access past the count.  A core's
    refill takes from its own queue, advancing its reader (which deals
    to every core on it) only while the queue is short of a chunk.
    Past {!queue_budget}, the longest queue other than the refilling
    core's is dropped, and its core re-reads the input on a reader of
    its own, skipping what it has handed out: at worst one pass per
    core, in memory bounded whatever the trace's length.  A reset
    core joins an unread reader shared by the cores reset after it. *)
val streams :
  ?scan:scan -> options -> Reader.source -> Ctam_cachesim.Engine.stream array

(** Materialized per-core encoded access arrays, from one replay. *)
val load : ?scan:scan -> options -> Reader.source -> int array array

(** [run ~machine opts src] replays the trace on a fresh hierarchy of
    [machine] as one phase, idle machine cores running empty streams.
    [sample_sets] is passed through to {!Ctam_cachesim.Hierarchy.create},
    [?scan] as in {!streams}.
    @raise Error when the trace uses more cores than the machine has. *)
val run :
  ?sample_sets:int ->
  ?scan:scan ->
  machine:Ctam_arch.Topology.t ->
  options ->
  Reader.source ->
  Ctam_cachesim.Stats.t * scan

(** The [ctam-simtrace-v1] report: trace metadata, per-level
    replacement policies, and the run statistics. *)
val report_json :
  machine:Ctam_arch.Topology.t ->
  options ->
  scan ->
  Ctam_cachesim.Stats.t ->
  Ctam_util.Json.t

(** Supported trace notations, [(name, description)] — surfaced by
    [ctamap --help] and the daemon's [version] op. *)
val trace_formats : (string * string) list
