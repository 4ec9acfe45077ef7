(* Slow-request ring buffer: the daemon keeps the last [capacity]
   requests whose total service time met the [--slow-ms] threshold,
   queryable live over the wire ({"op":"slowlog"}) — the "which
   requests were slow, and why" half of the observability story, with
   per-span timings telling the why.

   Mutex-protected; recording is O(1) into a circular array and a
   query snapshots newest-first.  Entries are plain JSON so the op
   handler returns them verbatim. *)

module J = Ctam_util.Json

type t = {
  threshold_ms : float;
  capacity : int;
  ring : J.t option array;
  mutable next : int;  (** slot the next entry lands in *)
  mutable recorded : int;  (** total entries ever recorded *)
  lock : Mutex.t;
}

let default_threshold_ms = 100.
let default_capacity = 64

let create ?(threshold_ms = default_threshold_ms)
    ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Slowlog.create: capacity";
  if threshold_ms < 0. then invalid_arg "Slowlog.create: threshold_ms";
  {
    threshold_ms;
    capacity;
    ring = Array.make capacity None;
    next = 0;
    recorded = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let threshold_ms t = t.threshold_ms

(* [note t ctx ~spans ~total_seconds] records the finished request
   when it crossed the threshold. *)
let note t (ctx : Reqctx.t) ~spans ~total_seconds =
  let ms = total_seconds *. 1000. in
  if ms >= t.threshold_ms then
    let entry =
      J.Obj
        ([
           ("ts", J.Float ctx.Reqctx.started);
           ("request_id", J.Int ctx.Reqctx.id);
           ("conn", J.Int ctx.Reqctx.conn);
           ("op", J.String ctx.Reqctx.op);
           ("ms", J.Float ms);
           ("cache", J.String (Reqctx.cache_id ctx.Reqctx.cache));
           ("status", J.String ctx.Reqctx.status);
         ]
        @ (match ctx.Reqctx.error_code with
          | None -> []
          | Some code -> [ ("error_code", J.String code) ])
        @ [ ("spans_us", Reqctx.micros_json spans) ])
    in
    locked t (fun () ->
        t.ring.(t.next) <- Some entry;
        t.next <- (t.next + 1) mod t.capacity;
        t.recorded <- t.recorded + 1)

(* Newest-first, at most [limit] (default: everything retained). *)
let entries ?limit t =
  locked t (fun () ->
      let out = ref [] in
      for i = 0 to t.capacity - 1 do
        (* walk backwards from the most recent slot *)
        let slot = (t.next - 1 - i + (2 * t.capacity)) mod t.capacity in
        match t.ring.(slot) with
        | Some e -> out := e :: !out
        | None -> ()
      done;
      let newest_first = List.rev !out in
      match limit with
      | None -> newest_first
      | Some n -> List.filteri (fun i _ -> i < max 0 n) newest_first)

let length t =
  locked t (fun () ->
      Array.fold_left
        (fun a -> function Some _ -> a + 1 | None -> a)
        0 t.ring)

let recorded t = locked t (fun () -> t.recorded)

let to_json ?limit t =
  J.Obj
    [
      ("threshold_ms", J.Float t.threshold_ms);
      ("capacity", J.Int t.capacity);
      ("recorded", J.Int (recorded t));
      ("entries", J.List (entries ?limit t));
    ]
