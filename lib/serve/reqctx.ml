(* Request context of the mapping daemon: one value minted per decoded
   frame and threaded through dispatch, the plan cache and the logger,
   so every log line, metric sample, journal record and error reply
   can be tied back to one request.

   The id is monotonic across the whole daemon (a single atomic), and
   [conn] identifies the client connection it arrived on.  [finish]
   publishes the request's total and its spans — the named phase
   timings (decode / cache_lookup / compile / simulate / encode ...)
   its Span collectors gathered — as ctam_serve_* histograms labelled
   by op and cache outcome. *)

module J = Ctam_util.Json
module Tel = Ctam_telemetry

let tel_span_seconds =
  Tel.Metrics.Histogram.v
    ~labels:[ "op"; "span" ]
    ~help:"Per-request phase timings inside the daemon, in seconds"
    "ctam_serve_span_seconds"

let tel_request_seconds =
  Tel.Metrics.Histogram.v
    ~labels:[ "op"; "cache" ]
    ~help:"Request service time in seconds by operation and cache outcome"
    "ctam_serve_request_seconds"

(* Cache outcomes a request can end with.  [`None_] is for ops that
   never consult the plan cache (ping/stats/metrics/...). *)
type cache_outcome = Memory | Disk | Miss | Bypass | None_

let cache_id = function
  | Memory -> "memory"
  | Disk -> "disk"
  | Miss -> "miss"
  | Bypass -> "bypass"
  | None_ -> "none"

type t = {
  id : int;
  conn : int;
  started : float;  (** wall clock at frame decode *)
  mutable op : string;
  mutable cache : cache_outcome;
  mutable status : string;  (** "ok" | "error" | "timeout" *)
  mutable error_code : string option;
}

let next_id = Atomic.make 0
let next_conn = Atomic.make 0

let mint_conn () = Atomic.fetch_and_add next_conn 1

let create ~conn () =
  {
    id = Atomic.fetch_and_add next_id 1;
    conn;
    started = Unix.gettimeofday ();
    op = "?";
    cache = None_;
    status = "ok";
    error_code = None;
  }

let log_fields ctx =
  [ ("request_id", J.Int ctx.id); ("conn", J.Int ctx.conn) ]

(* Run [f] with this request's identity on every log line it emits
   on the calling domain. *)
let with_logging ctx f = Tel.Log.with_context (log_fields ctx) f

let error ctx code =
  ctx.status <- (if code = "timeout" then "timeout" else "error");
  ctx.error_code <- Some code

(* Publish the request's metric samples, [spans] among them, and
   return its total wall time.  Called exactly once, after the reply
   was written (or the write failed). *)
let finish ctx spans =
  let total = Unix.gettimeofday () -. ctx.started in
  if Tel.Metrics.enabled () then begin
    let cache = cache_id ctx.cache in
    Tel.Metrics.Histogram.observe
      (Tel.Metrics.Histogram.series tel_request_seconds [ ctx.op; cache ])
      total;
    List.iter
      (fun (name, seconds) ->
        Tel.Metrics.Histogram.observe
          (Tel.Metrics.Histogram.series tel_span_seconds [ ctx.op; name ])
          seconds)
      spans
  end;
  total

let micros_json spans =
  J.Obj
    (List.map
       (fun (name, seconds) ->
         (name, J.Int (int_of_float (Float.round (seconds *. 1e6)))))
       spans)
