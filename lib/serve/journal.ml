(* Structured audit journal of the mapping daemon: an append-only
   JSONL file with exactly one record per request — identity, content
   key, cache outcome, per-span timings, byte counts, status, plus the
   request and response documents themselves so a journal can be
   re-issued verbatim against a live daemon (tools/journal_replay) and
   the answers diffed for postmortems and regression replay.

   Writes are serialised by a mutex and flushed per record, so a crash
   loses at most the record being written and concurrent workers never
   interleave lines.  Rotation is by size: when a record would push the
   file past [max_bytes] the current file is renamed to [path ^ ".1"]
   (replacing any previous rotation) and a fresh file is started — the
   operator always has between one and two size-bounded files. *)

module J = Ctam_util.Json
module Tel = Ctam_telemetry

(* Version of the record schema below; bump on incompatible change. *)
let version = 1

let default_max_bytes = 64 * 1024 * 1024

let tel_records =
  Tel.Metrics.Counter.v ~help:"Audit journal records written"
    "ctam_serve_journal_records_total"

let tel_bytes =
  Tel.Metrics.Counter.v ~help:"Audit journal bytes written"
    "ctam_serve_journal_bytes_total"

let tel_rotations =
  Tel.Metrics.Counter.v ~help:"Audit journal size rotations"
    "ctam_serve_journal_rotations_total"

let tel_failures =
  Tel.Metrics.Counter.v ~help:"Audit journal write failures"
    "ctam_serve_journal_write_failures_total"

type t = {
  path : string;
  max_bytes : int;
  lock : Mutex.t;
  mutable oc : out_channel option;
  mutable bytes : int;  (** size of the current file *)
  mutable records : int;  (** records written since [create] *)
  mutable rotations : int;
  mutable failures : int;
}

let create ?(max_bytes = default_max_bytes) path =
  if max_bytes < 1 then invalid_arg "Journal.create: max_bytes";
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  {
    path;
    max_bytes;
    lock = Mutex.create ();
    oc = Some oc;
    bytes = out_channel_length oc;
    records = 0;
    rotations = 0;
    failures = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Caller holds the lock. *)
let rotate_locked t =
  (match t.oc with
  | Some oc ->
      close_out_noerr oc;
      t.oc <- None
  | None -> ());
  (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
  t.oc <- Some (open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 t.path);
  t.bytes <- 0;
  t.rotations <- t.rotations + 1;
  Tel.Metrics.Counter.inc0 tel_rotations

(* [record_parts t parts] appends one record line given as pre-minified
   fragments, written piecewise so the line is never materialised as
   one string — a run record embeds the ~tens-of-KB reply payload, and
   concatenating it per request showed up as multi-millisecond GC
   pauses on the warm serving path.  Failures are counted and logged,
   never raised: losing a journal line must not cost the request. *)
let record_parts t parts =
  let len = List.fold_left (fun a s -> a + String.length s) 1 parts in
  locked t (fun () ->
      match
        if t.bytes > 0 && t.bytes + len > t.max_bytes then rotate_locked t;
        match t.oc with
        | None -> ()
        | Some oc ->
            List.iter (output_string oc) parts;
            output_char oc '\n';
            flush oc
      with
      | () ->
          t.bytes <- t.bytes + len;
          t.records <- t.records + 1;
          Tel.Metrics.Counter.inc0 tel_records;
          Tel.Metrics.Counter.inc ~by:len
            (Tel.Metrics.Counter.series tel_bytes [])
      | exception (Sys_error _ as e) ->
          t.failures <- t.failures + 1;
          Tel.Metrics.Counter.inc0 tel_failures;
          Tel.Log.warn ~src:"serve.journal"
            ~fields:[ ("path", J.String t.path) ]
            (fun () -> "journal write failed: " ^ Printexc.to_string e))

let record t json = record_parts t [ J.to_string ~minify:true json ]

let close t =
  locked t (fun () ->
      match t.oc with
      | Some oc ->
          close_out_noerr oc;
          t.oc <- None
      | None -> ())

let records t = locked t (fun () -> t.records)

let stats_json t =
  locked t (fun () ->
      J.Obj
        [
          ("path", J.String t.path);
          ("records", J.Int t.records);
          ("bytes", J.Int t.bytes);
          ("max_bytes", J.Int t.max_bytes);
          ("rotations", J.Int t.rotations);
          ("write_failures", J.Int t.failures);
        ])

(* The one-record-per-request shape (see DESIGN.md, "Service
   observability").  [key] is the FNV-1a hash of the plan-cache key —
   the full key is reproducible from the request, the hash is what
   correlates with the on-disk cache file names. *)
let envelope_members ~(ctx : Reqctx.t) ~spans ~key ~bytes_in ~bytes_out
    ~total_seconds ~request =
  [
    ("ctam_journal_version", J.Int version);
    ("ts", J.Float ctx.Reqctx.started);
    ("request_id", J.Int ctx.Reqctx.id);
    ("conn", J.Int ctx.Reqctx.conn);
    ("op", J.String ctx.Reqctx.op);
    ( "key",
      match key with
      | None -> J.Null
      | Some k -> J.String (Ctam_util.Diskstore.hash k) );
    ("cache", J.String (Reqctx.cache_id ctx.Reqctx.cache));
    ("status", J.String ctx.Reqctx.status);
  ]
  @ (match ctx.Reqctx.error_code with
    | None -> []
    | Some code -> [ ("error_code", J.String code) ])
  @ [
      ("total_us", J.Int (int_of_float (Float.round (total_seconds *. 1e6))));
      ("spans_us", Reqctx.micros_json spans);
      ("bytes_in", J.Int bytes_in);
      ("bytes_out", J.Int bytes_out);
      ("request", request);
    ]

let request_json ~ctx ~spans ~key ~bytes_in ~bytes_out ~total_seconds ~request
    ~response =
  J.Obj
    (envelope_members ~ctx ~spans ~key ~bytes_in ~bytes_out ~total_seconds
       ~request
    @ [ ("response", response) ])

(* [record_request] splices [response] — the pieces of the
   already-minified wire payload — into the record instead of
   re-serialising (or even re-concatenating) the response document.
   The response dominates a run record by two orders of magnitude;
   both encoding it a second time and materialising the joined line
   showed up as the journal's warm-path overhead
   (EXPERIMENTS.md, "Journal overhead"). *)
let record_request t ~ctx ~spans ~key ~bytes_in ~bytes_out ~total_seconds
    ~request ~response =
  record_parts t
    (Protocol.splice
       (envelope_members ~ctx ~spans ~key ~bytes_in ~bytes_out ~total_seconds
          ~request)
       "response" response)
