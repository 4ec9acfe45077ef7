(* The mapping daemon: a Unix-domain-socket server answering
   length-prefixed JSON requests (Protocol) concurrently from a
   Parallel-backed worker pool, fronted by the compiled-plan cache
   (Plan_cache).

   Robustness contract — the reason this is a daemon and not a script:
   no input may kill it.  A malformed frame, an unparseable request, a
   client that disconnects mid-request, an oversized frame, a corrupt
   on-disk cache entry: each is answered (when the socket still
   works) with a structured error reply and at most costs that one
   connection.  Only an explicit shutdown request or [stop] ends the
   accept loops.

   Concurrency shape: [serve] runs [workers] accept loops as one
   [Parallel.map] over [workers] never-returning tasks — each domain
   pulls exactly one task, giving a fixed-size pool with the same
   domain machinery every other parallel path in ctamap uses.  Workers
   poll the listening socket with a short [select] timeout and check
   the stop flag in between, and blocked reads use a receive timeout
   plus the protocol's [on_idle] hook, so shutdown never needs to
   interrupt anything mid-frame.  Every request runs inline on the
   worker that read it, a timed one under a cooperative deadline, so
   the daemon never runs more than [workers] domains. *)

module J = Ctam_util.Json
module Tel = Ctam_telemetry
module Span = Ctam_telemetry.Span
module Parallel = Ctam_util.Parallel

let tel_requests =
  Tel.Metrics.Counter.v
    ~labels:[ "op"; "outcome" ]
    ~help:"Service requests by operation and outcome"
    "ctam_serve_requests_total"

let tel_connections =
  Tel.Metrics.Counter.v ~help:"Connections accepted"
    "ctam_serve_connections_total"

(* Request service-time histograms (ctam_serve_request_seconds /
   ctam_serve_span_seconds) live in Reqctx, labelled by op and cache
   outcome / span. *)

let count_request op outcome =
  Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_requests [ op; outcome ])

type config = {
  socket : string;
  workers : int;
  max_frame : int;  (** refuse request frames larger than this *)
  default_timeout_ms : int option;
      (** applied when the request carries no [timeout_ms] *)
  cache_dir : string option;
  cache_entries : int;
  cache_bytes : int;
  journal_path : string option;
      (** append-only JSONL audit journal (--journal) *)
  journal_max_bytes : int;  (** size-rotation bound for the journal *)
  slow_ms : float;  (** slowlog threshold (--slow-ms) *)
  slowlog_entries : int;  (** slowlog ring capacity *)
}

let default_config =
  {
    socket = "ctamap.sock";
    workers = 2;
    max_frame = Protocol.default_max_frame;
    default_timeout_ms = None;
    cache_dir = None;
    cache_entries = Plan_cache.default_max_entries;
    cache_bytes = Plan_cache.default_max_bytes;
    journal_path = None;
    journal_max_bytes = Journal.default_max_bytes;
    slow_ms = Slowlog.default_threshold_ms;
    slowlog_entries = Slowlog.default_capacity;
  }

type counters = {
  mutable served : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable cached : int;
}

type t = {
  config : config;
  cache : Plan_cache.t;
  journal : Journal.t option;
  slowlog : Slowlog.t;
  listen_fd : Unix.file_descr;
  started : float;  (** wall clock at [create] (stats uptime) *)
  stop : bool Atomic.t;
  c : counters;
  lock : Mutex.t;  (** counters *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- lifecycle -------------------------------------------------------- *)

let create config =
  (* A dead client mid-reply must be an EPIPE error on the write, not
     a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX config.socket);
     Unix.listen fd 64;
     (* Non-blocking: every worker selects on this fd, so one arriving
        connection can wake several of them.  With a blocking fd the
        losers of that accept race would block inside [accept] — deaf
        to the stop flag — and shutdown would hang; non-blocking turns
        the lost race into an EAGAIN and another trip round the
        select loop. *)
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let cache =
    Plan_cache.create ?dir:config.cache_dir ~max_entries:config.cache_entries
      ~max_bytes:config.cache_bytes ()
  in
  let journal =
    Option.map
      (Journal.create ~max_bytes:config.journal_max_bytes)
      config.journal_path
  in
  let slowlog =
    Slowlog.create ~threshold_ms:config.slow_ms
      ~capacity:config.slowlog_entries ()
  in
  {
    config;
    cache;
    journal;
    slowlog;
    listen_fd = fd;
    started = Unix.gettimeofday ();
    stop = Atomic.make false;
    c = { served = 0; errors = 0; timeouts = 0; cached = 0 };
    lock = Mutex.create ();
  }

let stop t = Atomic.set t.stop true

(* --- per-request execution ------------------------------------------- *)

let internal_error e =
  "request failed: " ^ Printexc.to_string e

let stats_json t =
  let served, errors, timeouts, cached =
    locked t (fun () -> (t.c.served, t.c.errors, t.c.timeouts, t.c.cached))
  in
  J.Obj
    [
      ("version", J.String Ctam_exp.Build_info.version);
      ("workers", J.Int t.config.workers);
      ("uptime_seconds", J.Float (Unix.gettimeofday () -. t.started));
      ("served", J.Int served);
      ("errors", J.Int errors);
      ("timeouts", J.Int timeouts);
      ("cached", J.Int cached);
      ("cache", Plan_cache.stats_json t.cache);
      ( "journal",
        match t.journal with
        | None -> J.Null
        | Some jn -> Journal.stats_json jn );
      ( "slowlog",
        J.Obj
          [
            ("threshold_ms", J.Float (Slowlog.threshold_ms t.slowlog));
            ("recorded", J.Int (Slowlog.recorded t.slowlog));
          ] );
    ]

(* The [metrics] op: a telemetry snapshot in either the structured
   JSON shape ([--metrics-out]) or the Prometheus 0.0.4 text format,
   scraped live from the daemon's registry. *)
let metrics_json = function
  | `Json ->
      Tel.Profile.snapshot_json ~version:Ctam_exp.Build_info.version
        ~telemetry_version:Ctam_exp.Build_info.telemetry_version ()
  | `Prometheus -> J.String (Tel.Prometheus.render ())

let metrics_format j =
  match j with
  | J.Obj _ -> (
      match J.member "format" j with
      | None -> Ok `Json
      | Some (J.String ("json" | "snapshot")) -> Ok `Json
      | Some (J.String ("prometheus" | "prom" | "text")) -> Ok `Prometheus
      | Some _ ->
          Error "\"format\" must be \"json\" or \"prometheus\""
      )
  | _ -> Ok `Json

let slowlog_limit j =
  match j with
  | J.Obj _ -> (
      match J.member "limit" j with
      | None -> Ok None
      | Some (J.Int n) when n >= 0 -> Ok (Some n)
      | Some _ -> Error "\"limit\" must be a non-negative integer")
  | _ -> Ok None

(* A reply before it is written: a document, encoded in the [encode]
   span, or the pieces of a payload already spliced around a cached
   plan's stored bytes (Protocol.ok_pieces). *)
type reply = Json of J.t | Spliced of string list

(* Account one answered request under [op] and [outcome], and return
   what [handle] returns: the reply, whether the daemon should begin
   shutting down, the plan-cache key (for the journal) when the
   operation has one, and the spans of a completed execution. *)
let answer t (ctx : Reqctx.t) ?(stopping = false) ?key ?(spans = []) ~op
    ~outcome reply =
  ctx.Reqctx.op <- op;
  count_request op outcome;
  locked t (fun () ->
      t.c.served <- t.c.served + 1;
      match outcome with
      | "error" | "timeout" ->
          t.c.errors <- t.c.errors + 1;
          if outcome = "timeout" then t.c.timeouts <- t.c.timeouts + 1
      | "cached" -> t.c.cached <- t.c.cached + 1
      | _ -> ());
  (reply, stopping, key, spans)

(* Shared cached-compute tail of every plan-carrying op (map / run /
   tune / check / trace): plan-cache lookup, deadline-guarded
   execution, store.  [compute] returns the result JSON plus its
   execution spans, which join the request's only when it returns.  A
   cached or stored result is replied as its stored text, so it is
   encoded at most once, when it is stored; only a [nocache] result is
   encoded with its reply. *)
let run_cached t (ctx : Reqctx.t) ~id ~request_id ~opname ~key ~nocache
    ~timeout_ms compute =
  let finish = answer t ctx in
  let cached_text =
    if nocache then begin
      ctx.Reqctx.cache <- Reqctx.Bypass;
      None
    end
    else
      match
        Span.with_ "cache_lookup" (fun () -> Plan_cache.lookup t.cache key)
      with
      | Plan_cache.Memory text ->
          ctx.Reqctx.cache <- Reqctx.Memory;
          Some text
      | Plan_cache.Disk text ->
          ctx.Reqctx.cache <- Reqctx.Disk;
          Some text
      | Plan_cache.Absent ->
          ctx.Reqctx.cache <- Reqctx.Miss;
          None
  in
  match cached_text with
  | Some text ->
      finish ~key ~op:opname ~outcome:"cached"
        (Spliced (Protocol.ok_pieces ~id ~request_id ~cached:true text))
  | None -> (
      let timeout_ms =
        match timeout_ms with
        | Some _ as ms -> ms
        | None -> t.config.default_timeout_ms
      in
      let fail ~outcome code msg =
        Reqctx.error ctx code;
        finish ~key ~op:opname ~outcome
          (Json (Protocol.error_response ~id ~request_id ~code msg))
      in
      (* Timed or not, the work runs inline on this worker.  A timed
         request polls its deadline in every loop that grows with its
         input, and unwinds here with [Expired] soon after it passes. *)
      match
        match timeout_ms with
        | None -> compute ()
        | Some ms -> Ctam_util.Deadline.within ~ms compute
      with
      | v, spans ->
          finish ~key ~spans ~op:opname ~outcome:"ok"
            (if nocache then Json (Protocol.ok_response ~id ~request_id v)
             else
               Spliced
                 (Protocol.ok_pieces ~id ~request_id
                    (Plan_cache.store t.cache key v)))
      | exception Ctam_util.Deadline.Expired ->
          (* Only a [within] scope raises it, so [timeout_ms] is set. *)
          fail ~outcome:"timeout" "timeout"
            (Printf.sprintf "request exceeded %d ms" (Option.get timeout_ms))
      | exception e -> fail ~outcome:"error" "internal" (internal_error e))

let name_desc_json entries =
  J.List
    (List.map
       (fun (name, desc) ->
         J.Obj [ ("name", J.String name); ("description", J.String desc) ])
       entries)

(* The [version] op: feature detection for clients — build version,
   available ops, replacement policies and trace notations, so a
   client can probe before submitting a [trace] op or a policy spec. *)
let version_json =
  J.Obj
    [
      ("version", J.String Ctam_exp.Build_info.version);
      ( "ops",
        J.List
          (List.map
             (fun s -> J.String s)
             [
               "ping"; "stats"; "metrics"; "slowlog"; "version"; "map"; "run";
               "tune"; "check"; "trace"; "shutdown";
             ]) );
      ("policies", name_desc_json Ctam_arch.Policy.all);
      ("trace_formats", name_desc_json Ctam_tracein.Ingest.trace_formats);
    ]

(* Answer one parsed request object under [ctx] (see [answer] for what
   it returns).  Every reply carries the daemon-minted [request_id],
   and [ctx] leaves with op / cache outcome / status / error code
   filled in. *)
let handle t (ctx : Reqctx.t) j =
  let request_id = ctx.Reqctx.id in
  let id = match j with J.Obj _ -> Option.value ~default:J.Null (J.member "id" j) | _ -> J.Null in
  let op =
    match j with
    | J.Obj _ -> (
        match J.member "op" j with Some (J.String s) -> Some s | _ -> None)
    | _ -> None
  in
  let finish = answer t ctx in
  let bad_request ~op msg =
    Reqctx.error ctx "bad_request";
    finish ~op ~outcome:"error"
      (Json (Protocol.error_response ~id ~request_id ~code:"bad_request" msg))
  in
  match op with
  | None ->
      Reqctx.error ctx "bad_request";
      finish ~op:"?" ~outcome:"error"
        (Json
           (Protocol.error_response ~id ~request_id ~code:"bad_request"
              "request must be an object with a string \"op\" member"))
  | Some "ping" ->
      finish ~op:"ping" ~outcome:"ok"
        (Json
           (Protocol.ok_response ~id ~request_id
              (J.Obj [ ("pong", J.Bool true) ])))
  | Some "stats" ->
      finish ~op:"stats" ~outcome:"ok"
        (Json (Protocol.ok_response ~id ~request_id (stats_json t)))
  | Some "metrics" -> (
      match metrics_format j with
      | Error msg -> bad_request ~op:"metrics" msg
      | Ok format ->
          finish ~op:"metrics" ~outcome:"ok"
            (Json (Protocol.ok_response ~id ~request_id (metrics_json format))))
  | Some "slowlog" -> (
      match slowlog_limit j with
      | Error msg -> bad_request ~op:"slowlog" msg
      | Ok limit ->
          finish ~op:"slowlog" ~outcome:"ok"
            (Json
               (Protocol.ok_response ~id ~request_id
                  (Slowlog.to_json ?limit t.slowlog))))
  | Some "version" ->
      finish ~op:"version" ~outcome:"ok"
        (Json (Protocol.ok_response ~id ~request_id version_json))
  | Some "trace" -> (
      match Request.parse_trace j with
      | Error msg -> bad_request ~op:"trace" msg
      | Ok tr ->
          ctx.Reqctx.op <- "trace";
          run_cached t ctx ~id ~request_id ~opname:"trace"
            ~key:(Request.trace_key tr) ~nocache:tr.Request.t_nocache
            ~timeout_ms:tr.Request.t_timeout_ms (fun () ->
              Request.execute_trace tr))
  | Some "shutdown" ->
      Atomic.set t.stop true;
      finish ~stopping:true ~op:"shutdown" ~outcome:"ok"
        (Json
           (Protocol.ok_response ~id ~request_id
              (J.Obj [ ("stopping", J.Bool true) ])))
  | Some opname -> (
      match Request.parse j with
      | Error msg -> bad_request ~op:opname msg
      | Ok r ->
          let opname = Request.op_id r.Request.op in
          ctx.Reqctx.op <- opname;
          run_cached t ctx ~id ~request_id ~opname
            ~key:(Request.key r) ~nocache:r.Request.nocache
            ~timeout_ms:r.Request.timeout_ms (fun () ->
              Request.execute ?cache_dir:t.config.cache_dir r))

(* --- connection and accept loops -------------------------------------- *)

(* Replies are best-effort: when the client vanished mid-reply the
   write raises (EPIPE) and only this connection ends.  Returns the
   payload bytes written (None on failure) so the journal can record
   [bytes_out]. *)
let try_write fd pieces =
  match Protocol.write_pieces fd pieces with
  | () -> Some (List.fold_left (fun a s -> a + String.length s) 0 pieces)
  | exception Unix.Unix_error (_, _, _) -> None

(* Seal one finished request: encode (a [Json] reply) and write it
   inside an [encode] span, publish the context's metric samples with
   [spans] and that span, and feed the journal and the slowlog.  The
   payload's pieces are reused as the journal record's response member
   — a run reply is tens of kilobytes and encoding or copying it again
   per request would dominate the journal's cost.  Returns the write
   result. *)
let complete t (ctx : Reqctx.t) fd ~spans ~key ~bytes_in ~request reply =
  let (wrote, pieces), encode =
    Span.collect (fun () ->
        Span.with_ "encode" (fun () ->
            let pieces =
              match reply with
              | Json j -> [ J.to_string ~minify:true j ]
              | Spliced pieces -> pieces
            in
            (try_write fd pieces, pieces)))
  in
  let spans = spans @ encode in
  let total_seconds = Reqctx.finish ctx spans in
  (match t.journal with
  | None -> ()
  | Some jn ->
      Journal.record_request jn ~ctx ~spans ~key ~bytes_in
        ~bytes_out:(Option.value ~default:0 wrote)
        ~total_seconds ~request ~response:pieces);
  Slowlog.note t.slowlog ctx ~spans ~total_seconds;
  wrote

let serve_connection t fd =
  Tel.Metrics.Counter.inc0 tel_connections;
  let conn = Reqctx.mint_conn () in
  (* The listening fd is non-blocking; the conversation must not be. *)
  (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
  (* Bounded reads so an idle connection re-checks the stop flag. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2
   with Unix.Unix_error _ -> ());
  let on_idle () = if Atomic.get t.stop then `Stop else `Continue in
  let rec loop () =
    match Protocol.read_frame ~max_bytes:t.config.max_frame ~on_idle fd with
    | Error Protocol.Closed | Error Protocol.Stopped -> ()
    | Error (Protocol.Oversized { length; in_sync }) ->
        (* The frame never materialised, but the refusal is still a
           served (and journaled) request with its own id. *)
        let ctx = Reqctx.create ~conn () in
        Reqctx.error ctx "oversized_frame";
        let reply, _, _, _ =
          answer t ctx ~op:"?" ~outcome:"error"
            (Json
               (Protocol.error_response ~request_id:ctx.Reqctx.id
                  ~code:"oversized_frame"
                  (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit"
                     length t.config.max_frame)))
        in
        let sent =
          Reqctx.with_logging ctx (fun () ->
              Tel.Log.warn ~src:"serve" (fun () ->
                  Printf.sprintf "refusing oversized frame (%d bytes)" length);
              complete t ctx fd ~spans:[] ~key:None ~bytes_in:length
                ~request:J.Null reply)
        in
        (* A drained frame leaves the stream framed; an undrainable
           length means the peer never spoke the protocol. *)
        if sent <> None && in_sync then loop ()
    | Ok payload ->
        let ctx = Reqctx.create ~conn () in
        let bytes_in = String.length payload in
        let refuse code message =
          Reqctx.error ctx code;
          ( J.Null,
            answer t ctx ~op:ctx.Reqctx.op ~outcome:"error"
              (Json
                 (Protocol.error_response ~request_id:ctx.Reqctx.id ~code
                    message)) )
        in
        (* The request's spans: decode's and the dispatch's, then a
           completed execution's, then encode's.  No frame may end this
           worker: one whose decoding or handling raises (nesting deep
           enough to overflow the stack, say) is answered [internal]
           and journaled without its body. *)
        let (request, (reply, stopping, key, exec)), spans =
          Span.collect (fun () ->
              match
                match Span.with_ "decode" (fun () -> J.parse payload) with
                | Ok j ->
                    (j, Reqctx.with_logging ctx (fun () -> handle t ctx j))
                | Error e ->
                    refuse "malformed_json" ("request is not valid JSON: " ^ e)
              with
              | handled -> handled
              | exception e -> refuse "internal" (internal_error e))
        in
        let sent =
          Reqctx.with_logging ctx (fun () ->
              complete t ctx fd ~spans:(spans @ exec) ~key ~bytes_in ~request
                reply)
        in
        if sent <> None && not stopping then loop ()
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ -> serve_connection t fd
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                  | Unix.EWOULDBLOCK ),
                  _,
                  _ ) ->
              ()
          | exception Unix.Unix_error (_, _, _) -> Atomic.set t.stop true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> Atomic.set t.stop true);
      loop ()
    end
  in
  loop ()

(* [serve t] blocks until a shutdown request or [stop t], then joins
   every worker and removes the socket.  A worker finishes the request
   in hand first; a timed one stops at its deadline. *)
let serve t =
  let w = max 1 t.config.workers in
  Tel.Log.info ~src:"serve"
    ~fields:
      ([
         ("socket", J.String t.config.socket);
         ("workers", J.Int w);
         ("max_frame", J.Int t.config.max_frame);
         ("cache_entries", J.Int t.config.cache_entries);
         ("cache_bytes", J.Int t.config.cache_bytes);
         ( "cache_dir",
           match t.config.cache_dir with
           | None -> J.Null
           | Some d -> J.String d );
         ( "timeout_ms",
           match t.config.default_timeout_ms with
           | None -> J.Null
           | Some ms -> J.Int ms );
         ("slow_ms", J.Float t.config.slow_ms);
         ("slowlog_entries", J.Int t.config.slowlog_entries);
       ]
      @
      match t.config.journal_path with
      | None -> []
      | Some p ->
          [
            ("journal", J.String p);
            ("journal_max_bytes", J.Int t.config.journal_max_bytes);
          ])
    (fun () -> "mapping daemon listening");
  Parallel.iter ~domains:w (fun _ -> accept_loop t) (List.init w Fun.id);
  Option.iter Journal.close t.journal;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket with Unix.Unix_error _ -> ());
  Tel.Log.info ~src:"serve"
    ~fields:[ ("served", J.Int t.c.served); ("errors", J.Int t.c.errors) ]
    (fun () -> "mapping daemon stopped")
