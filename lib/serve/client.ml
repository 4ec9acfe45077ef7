(* Client side of the mapping service: connect, exchange one frame per
   request, and a load-generator mode that measures the daemon's
   throughput and latency tail ([ctamap client --load]; the benchmark
   ledger's [serve] workload times the warm path). *)

module J = Ctam_util.Json
module Parallel = Ctam_util.Parallel

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* One request/reply exchange on an open connection.  Totals every
   failure into [Error _]: a vanished daemon is a result, not an
   exception, so the load generator can keep counting. *)
let request fd j =
  match
    Protocol.write_json fd j;
    Protocol.read_frame fd
  with
  | Ok payload -> (
      match J.parse payload with
      | Ok reply -> Ok reply
      | Error e -> Error ("reply is not valid JSON: " ^ e))
  | Error Protocol.Closed -> Error "connection closed by server"
  | Error Protocol.Stopped -> Error "read interrupted"
  | Error (Protocol.Oversized { length; _ }) ->
      Error (Printf.sprintf "oversized reply (%d bytes)" length)
  | exception Unix.Unix_error (err, _, _) ->
      Error ("socket error: " ^ Unix.error_message err)

let one_shot ~socket j =
  match connect socket with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Unix.error_message err))
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> request fd j)

(* --- load generator --------------------------------------------------- *)

type load_stats = {
  requests : int;
  ok : int;
  cached : int;  (** subset of [ok] answered from the plan cache *)
  errors : int;
  wall_seconds : float;
  rps : float;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

(* [load ~socket ~concurrency ~total reqs] sends [total] requests
   round-robin over the [reqs] templates from [concurrency] worker
   domains, each on its own connection (so concurrency here is real
   socket-level concurrency, not pipelining).  Latencies are
   per-request wall clock including the round trip. *)
let load ~socket ~concurrency ~total reqs =
  if reqs = [] then invalid_arg "Client.load: no request templates";
  if concurrency < 1 then invalid_arg "Client.load: concurrency";
  let templates = Array.of_list reqs in
  let share w =
    (* first workers absorb the remainder *)
    (total / concurrency) + if w < total mod concurrency then 1 else 0
  in
  let t0 = Unix.gettimeofday () in
  let per_worker =
    Parallel.map ~domains:concurrency
      (fun w ->
        let n = share w in
        if n = 0 then ([||], 0, 0)
        else
          let lat = Array.make n 0. in
          let ok = ref 0 and cached = ref 0 in
          let fd = connect socket in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              for i = 0 to n - 1 do
                let j = templates.((w + (i * concurrency)) mod Array.length templates) in
                let s0 = Unix.gettimeofday () in
                (match request fd j with
                | Ok reply when Protocol.response_ok reply ->
                    incr ok;
                    if Protocol.response_cached reply then incr cached
                | Ok _ | Error _ -> ());
                lat.(i) <- Unix.gettimeofday () -. s0
              done;
              (lat, !ok, !cached)))
      (List.init concurrency Fun.id)
  in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let lats = Array.concat (List.map (fun (l, _, _) -> l) per_worker) in
  let ok = List.fold_left (fun a (_, o, _) -> a + o) 0 per_worker in
  let cached = List.fold_left (fun a (_, _, c) -> a + c) 0 per_worker in
  let requests = Array.length lats in
  Array.sort compare lats;
  let sum = Array.fold_left ( +. ) 0. lats in
  let ms x = 1000. *. x in
  {
    requests;
    ok;
    cached;
    errors = requests - ok;
    wall_seconds;
    rps = (if wall_seconds > 0. then float_of_int requests /. wall_seconds else 0.);
    mean_ms = (if requests = 0 then 0. else ms (sum /. float_of_int requests));
    p50_ms = ms (quantile lats 0.50);
    p90_ms = ms (quantile lats 0.90);
    p99_ms = ms (quantile lats 0.99);
    max_ms = (if requests = 0 then 0. else ms lats.(requests - 1));
  }

let load_stats_json s =
  J.Obj
    [
      ("requests", J.Int s.requests);
      ("ok", J.Int s.ok);
      ("cached", J.Int s.cached);
      ("errors", J.Int s.errors);
      ("wall_seconds", J.Float s.wall_seconds);
      ("rps", J.Float s.rps);
      ("mean_ms", J.Float s.mean_ms);
      ("p50_ms", J.Float s.p50_ms);
      ("p90_ms", J.Float s.p90_ms);
      ("p99_ms", J.Float s.p99_ms);
      ("max_ms", J.Float s.max_ms);
    ]

let render_load_stats s =
  Printf.sprintf
    "%d requests (%d ok, %d cached, %d errors) in %.3f s\n\
     %.1f req/s | latency ms: mean %.2f  p50 %.2f  p90 %.2f  p99 %.2f  max %.2f"
    s.requests s.ok s.cached s.errors s.wall_seconds s.rps s.mean_ms s.p50_ms
    s.p90_ms s.p99_ms s.max_ms
