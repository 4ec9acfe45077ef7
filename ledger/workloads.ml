(* The four benchmark workloads.

   Each one builds its inputs from the seed, is set up (timed by the
   caller, several times), measures for a number of seconds, and then
   checks its outputs.  Every simulated statistic a workload produces is
   kept by key, so the caller can digest it against the goldens and
   derive hit ratios from it.

   Why these four: the paper's pipeline has two costly parts, the mapper
   (tagging, Figure 6 distribution, Figure 7 scheduling) and the
   simulated execution that scores it.  [sweep] is mapper-bound,
   [fullsize] is simulator-bound, [trace] bypasses the mapper for the
   trace parser and the non-LRU replacement policies, and [serve]
   bypasses both behind the daemon's plan cache. *)

module J = Ctam_util.Json
module Stats = Ctam_cachesim.Stats
module Engine = Ctam_cachesim.Engine
module Hierarchy = Ctam_cachesim.Hierarchy
module Mapping = Ctam_core.Mapping
module Topology = Ctam_arch.Topology
module Machines = Ctam_arch.Machines
module Policy = Ctam_arch.Policy
module Ingest = Ctam_tracein.Ingest
module Reader = Ctam_tracein.Reader
module Kernel = Ctam_workloads.Kernel
module Suite = Ctam_workloads.Suite
module Client = Ctam_serve.Client
module Protocol = Ctam_serve.Protocol
module Request = Ctam_serve.Request

(* [Smoke] shrinks every input so the whole ledger runs in seconds (the
   runtest gate); [Full] is what the benchmark measures. *)
type size = Full | Smoke

type env = {
  size : size;
  seed : int;
  tmp : string;  (** scratch directory inside the working directory *)
  ctamap : string;  (** path of the ctamap executable (serve) *)
  examples : string;  (** directory holding the example .ctam programs *)
}

type check = string * bool

(* What one timed window produced: segments of operations with their
   raw latencies, the host-speed references taken between segments, and
   operations attempted / failed with the first failure messages.  A
   [paired] tally runs every segment twice, once with spans recorded and
   once without, and keeps the ratio of the two host-normalized times. *)
type tally = {
  mutable segments : (float * float * float list) list;
      (** start, end, raw latencies of its completed operations *)
  mutable refs : (float * float) list;  (** when taken, reference time *)
  mutable pending : float list;  (** raw latencies of the open segment *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable next_op : int;
  paired : bool;
  mutable pair_ratios : float list;  (** traced over untraced time *)
}

let tally ?(paired = false) () =
  {
    segments = [];
    refs = [];
    pending = [];
    attempted = 0;
    failed = 0;
    errors = [];
    next_op = 0;
    paired;
    pair_ratios = [];
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

(* One timed operation: a root span named [name] around [f], which
   returns [Error] (or raises) when the operation failed.  Its latency
   joins the open segment. *)
let op t name f =
  t.attempted <- t.attempted + 1;
  let id = t.next_op in
  t.next_op <- id + 1;
  let t0 = Meter.now () in
  match Span.with_ ~op:id name f with
  | Ok () -> t.pending <- (Meter.now () -. t0) :: t.pending
  | Error msg -> fail t msg
  | exception e -> fail t (name ^ ": " ^ Printexc.to_string e)

let take_reference t = t.refs <- (Meter.now (), Meter.reference ()) :: t.refs

(* A stretch of operations with a host-speed reference on each side.  In
   a paired tally the traced and the untraced copy take turns going
   first, so neither gains from the warm-up the other leaves. *)
let segment t f =
  if t.refs = [] then take_reference t;
  (* The segment's time over the references on its sides: a
     host-normalized time, up to a constant factor. *)
  let run () =
    let before = snd (List.hd t.refs) in
    let t0 = Meter.now () in
    f ();
    let t1 = Meter.now () in
    t.segments <- (t0, t1, t.pending) :: t.segments;
    t.pending <- [];
    take_reference t;
    (t1 -. t0) /. (before +. snd (List.hd t.refs))
  in
  if not t.paired then ignore (run ())
  else begin
    let copy traced =
      Span.set traced;
      run ()
    in
    let ratio =
      if List.length t.pair_ratios mod 2 = 0 then
        let traced = copy true in
        traced /. copy false
      else
        let untraced = copy false in
        copy true /. untraced
    in
    t.pair_ratios <- ratio :: t.pair_ratios;
    Span.set true
  end

(* [within t f] runs [f] as one segment of [t] and returns its value. *)
let within t f =
  let r = ref None in
  segment t (fun () -> r := Some (f ()));
  Option.get !r

type timings = {
  lat : float list;  (** host-normalized latencies *)
  wall : float;  (** host-normalized time of all segments *)
  raw_lat : float list;
  raw_wall : float;
  reference : float;  (** median reference time of the window *)
}

(* Each segment is scaled by the median of the references taken within
   half a second of it: the two around it, and more where operations are
   short, so one disturbed reference cannot skew an operation. *)
let timings t =
  let scaled (t0, t1, lats) =
    let near =
      List.filter_map
        (fun (at, r) -> if at >= t0 -. 0.5 && at <= t1 +. 0.5 then Some r else None)
        t.refs
    in
    let k = Meter.nominal_reference /. Meter.median near in
    (List.map (fun x -> x *. k) lats, (t1 -. t0) *. k)
  in
  let segs = List.rev t.segments in
  let norm = List.map scaled segs in
  {
    lat = List.concat_map fst norm;
    wall = List.fold_left (fun a (_, w) -> a +. w) 0. norm;
    raw_lat = List.concat_map (fun (_, _, l) -> l) segs;
    raw_wall = List.fold_left (fun a (t0, t1, _) -> a +. (t1 -. t0)) 0. segs;
    reference = Meter.median (List.map snd t.refs);
  }

(* Repeat [pass] for about [seconds]: start another pass while at least
   half of a mean pass still fits in the window, and always run one. *)
let passes ~seconds pass =
  let t0 = Meter.now () in
  let rec go n =
    pass ();
    let elapsed = Meter.now () -. t0 in
    if elapsed +. (elapsed /. float_of_int n /. 2.) <= seconds then go (n + 1)
  in
  go 1

type instance = {
  measure : tally -> seconds:float -> unit;  (** the timed window *)
  finish : unit -> check list * (string * Stats.t) list;
      (** outside timing: run-level checks, and every simulated
          statistic by key *)
  rss_pid : int option;  (** process whose peak RSS is reported *)
  close : unit -> unit;
}

(* --- shared helpers ----------------------------------------------------- *)

(* A key's statistics must repeat exactly every time it is simulated. *)
let remember tbl key (st : Stats.t) =
  match Hashtbl.find_opt tbl key with
  | None ->
      Hashtbl.replace tbl key st;
      Ok ()
  | Some prev when prev = st -> Ok ()
  | Some _ -> Error (key ^ ": statistics differ between passes")

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

(* Largest power of two <= [requested] dividing every cache's set
   count: the largest legal set-sampling factor for the machine. *)
let sample_factor machine requested =
  List.fold_left
    (fun acc (c : Topology.cache_params) ->
      let sets = c.Topology.size_bytes / (c.Topology.assoc * c.Topology.line) in
      let rec fit f = if f <= 1 || sets mod f = 0 then max 1 f else fit (f / 2) in
      min acc (fit requested))
    requested (Topology.caches machine)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The paper's Figure 5 loop on Dunnington under Combined at capacity
   divisor 16 has a published reference; any other result means the
   simulated behaviour changed.  Doubles as the mapper and engine
   warm-up before timing. *)
let fig5_check env =
  let prog =
    Ctam_frontend.Lower.compile
      (read_file (Filename.concat env.examples "fig5.ctam"))
  in
  let machine = Machines.dunnington ~scale:16 () in
  let st = Mapping.simulate (Mapping.compile Mapping.Combined ~machine prog) in
  ( "fig5 reference (157008 cycles, 81920 accesses, 5120 mem, 6 barriers)",
    st.Stats.cycles = 157008
    && st.Stats.total_accesses = 81920
    && st.Stats.mem_accesses = 5120
    && st.Stats.barriers = 6 )

let compile_span ?stream scheme ~machine prog =
  Span.with_ "compile" (fun () -> Mapping.compile ?stream scheme ~machine prog)

let simulate_span ?sample_sets c =
  Span.with_ "simulate" (fun () -> Mapping.simulate ?sample_sets c)

(* --- sweep: the paper-reproduction grid ---------------------------------- *)

(* Every scheme on every suite kernel (reduced size) on Dunnington at
   capacity divisor 16: the grid of the bench's quick JSON trajectory,
   one machine of it.  Compile is ~95% of the time, and two kernels
   (equake, mesa) under the topology-aware schemes are most of that.
   Serial, because parallel jobs measured far noisier on small hosts.
   The seed only shuffles the job order. *)
let sweep env setup =
  let machine = Machines.dunnington ~scale:16 () in
  let kernels, schemes =
    match env.size with
    | Full -> (Suite.all, Mapping.all_schemes)
    | Smoke -> ([ Suite.galgel; Suite.cg ], [ Mapping.Base; Mapping.Combined ])
  in
  let jobs, fig5 =
    within setup (fun () ->
        let jobs =
          List.concat_map
            (fun (k : Kernel.t) ->
              let prog = Kernel.small_program k in
              List.map
                (fun s -> (k.Kernel.name ^ "/" ^ Mapping.scheme_name s, s, prog))
                schemes)
            kernels
        in
        (Meter.shuffle (Random.State.make [| env.seed |]) jobs, fig5_check env))
  in
  let seen = Hashtbl.create 64 in
  {
    measure =
      (fun t ~seconds ->
        passes ~seconds (fun () ->
            List.iter
              (fun (key, scheme, prog) ->
                segment t (fun () ->
                    op t "job" (fun () ->
                        let c = compile_span scheme ~machine prog in
                        remember seen key (simulate_span c))))
              jobs));
    finish = (fun () -> ([ fig5 ], sorted_bindings seen));
    rss_pid = None;
    close = ignore;
  }

(* --- fullsize: the paper's full-capacity Dunnington ---------------------- *)

(* Full-capacity Dunnington with kernels at twice their linear size:
   simulator-bound, and covering the dense, generator-backed and
   set-sampled engine modes.  Base skips distribution and scheduling.
   equake and applu under Combined are left out: their compiles alone
   exceed the measuring window. *)
let fullsize env setup =
  let machine, mult =
    match env.size with
    | Full -> (Machines.dunnington ~scale:1 (), 2)
    | Smoke -> (Machines.dunnington ~scale:16 (), 1)
  in
  let factor = sample_factor machine 16 in
  let prog (k : Kernel.t) = Kernel.program ~size:(k.Kernel.default_size * mult) k in
  let seen = Hashtbl.create 16 in
  (* Each library call is one operation, bracketed by host-speed
     references of its own: whole jobs last seconds, longer than the
     host's speed holds still. *)
  let call t f =
    let r = ref None in
    segment t (fun () ->
        op t "call" (fun () ->
            r := Some (f ());
            Ok ()));
    !r
  in
  let keep t key st =
    match remember seen key st with Ok () -> () | Error msg -> fail t msg
  in
  let simulate t key ?sample_sets c =
    Option.iter (keep t key) (call t (fun () -> simulate_span ?sample_sets c))
  in
  let streamed name scheme p t =
    Option.iter
      (fun c ->
        simulate t (name ^ "/exact") c;
        simulate t (name ^ "/sampled") ~sample_sets:factor c)
      (call t (fun () -> compile_span ~stream:true scheme ~machine p))
  in
  let jobs, fig5 =
    within setup (fun () ->
        let galgel = prog Suite.galgel in
        let jobs =
          (match env.size with
          | Full -> [ streamed "applu/base" Mapping.Base (prog Suite.applu) ]
          | Smoke -> [])
          @ [
              (fun t ->
                Option.iter
                  (simulate t "galgel/base/dense")
                  (call t (fun () -> compile_span Mapping.Base ~machine galgel)));
              streamed "galgel/base" Mapping.Base galgel;
              streamed "cg/combined" Mapping.Combined (prog Suite.cg);
              streamed "sp/combined" Mapping.Combined (prog Suite.sp);
            ]
        in
        (Meter.shuffle (Random.State.make [| env.seed |]) jobs, fig5_check env))
  in
  {
    measure =
      (fun t ~seconds ->
        passes ~seconds (fun () ->
            List.iter
              (fun job ->
                (* Every job starts from a collected heap, as a fresh
                   `ctamap run` would, so peak memory and collector
                   debt do not depend on the seed's job order. *)
                Gc.full_major ();
                job t)
              jobs));
    finish =
      (fun () ->
        let stats = sorted_bindings seen in
        let dense_eq =
          match
            ( List.assoc_opt "galgel/base/dense" stats,
              List.assoc_opt "galgel/base/exact" stats )
          with
          | Some d, Some s -> d = s
          | _ -> false
        in
        ([ fig5; ("streamed statistics equal dense", dense_eq) ], stats));
    rss_pid = None;
    close = ignore;
  }

(* --- trace: Lackey replay ------------------------------------------------ *)

(* A seeded Lackey trace: loads, stores and modifies, with instruction
   fetches the replay drops as noise, over three address streams — a
   1 MB sequential sweep, uniform-random over 8 MB, and a 16 KB hot
   set. *)
let lackey_text ~seed ~records =
  let rng = Random.State.make [| seed; 0x7ace |] in
  let b = Buffer.create (records * 16) in
  let seq = ref 0 in
  for _ = 1 to records do
    let addr =
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          seq := (!seq + 8) land ((1 lsl 20) - 1);
          0x10000000 + !seq
      | 4 | 5 | 6 -> 0x20000000 + (Random.State.int rng (1 lsl 20) * 8)
      | _ -> 0x30000000 + (Random.State.int rng (1 lsl 11) * 8)
    in
    match Random.State.int rng 20 with
    | 0 -> Printf.bprintf b "I  %08x,4\n" (0x400000 + Random.State.int rng 4096)
    | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 ->
        Printf.bprintf b " L %08x,8\n" addr
    | 12 | 13 | 14 | 15 | 16 -> Printf.bprintf b " S %08x,8\n" addr
    | _ -> Printf.bprintf b " M %08x,8\n" addr
  done;
  Buffer.contents b

(* Replayed on four cores round-robin on full-capacity Dunnington, once
   per policy plus one set-sampled LRU pass.  No mapper: the cost is
   the Lackey parser (every core's cursor re-reads the whole file) and
   the replacement policies no other workload uses. *)
let trace_policies = [ Policy.Lru; Policy.Plru; Policy.Qlru; Policy.Random 42 ]

let trace_file env =
  let path = Filename.concat env.tmp "trace.lackey" in
  let records = match env.size with Full -> 1 lsl 17 | Smoke -> 1 lsl 12 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (lackey_text ~seed:env.seed ~records));
  path

let trace path setup =
  let base = Machines.dunnington ~scale:1 () in
  let opts = { Ingest.default with Ingest.cores = 4 } in
  let src = Reader.File path in
  let scan = within setup (fun () -> Ingest.scan opts src) in
  let replays =
    List.map
      (fun p ->
        (Policy.to_string p, Topology.with_policy_spec [ (None, p) ] base, 1))
      trace_policies
    @ [ ("lru/sampled", base, sample_factor base 16) ]
  in
  let seen = Hashtbl.create 8 in
  {
    measure =
      (fun t ~seconds ->
        passes ~seconds (fun () ->
            List.iter
              (fun (key, machine, sample_sets) ->
                segment t (fun () ->
                    op t "replay" (fun () ->
                        let st, _ =
                          Span.with_ "run" (fun () ->
                              Ingest.run ~sample_sets ~machine opts src)
                        in
                        remember seen key st)))
              replays));
    finish =
      (fun () ->
        (* The streamed replay must equal the engine on the same trace
           loaded into arrays, idle cores running empty streams. *)
        let dense =
          let loaded = Ingest.load ~scan opts src in
          let phase =
            Array.init base.Topology.num_cores (fun c ->
                if c < Array.length loaded then loaded.(c) else [||])
          in
          Engine.run (Hierarchy.create base) [ phase ]
        in
        ( [
            ("trace scans without malformed lines", scan.Ingest.malformed = 0);
            ( "streamed replay equals dense replay",
              Hashtbl.find_opt seen "lru" = Some dense );
          ],
          sorted_bindings seen ));
    rss_pid = None;
    close = ignore;
  }

(* --- serve: the daemon's warm path ---------------------------------------- *)

(* A child daemon with its audit journal on, primed with a set of run
   requests, then driven by a closed loop of two connections (each
   caller waits for its reply) replaying the primed keys in a
   seed-shuffled order: transport, parse, key and encode with no
   simulation.  Cold requests run the pipeline [sweep] already measures;
   here they are the priming, inside set-up. *)
let serve_requests env =
  let run extra =
    J.Obj
      ([ ("op", J.String "run"); ("scheme", J.String "combined");
         ("scale", J.Int 64) ]
      @ extra)
  in
  let builtin p m = (p ^ "@" ^ m, run [ ("program", J.String p); ("machine", J.String m) ]) in
  let source f =
    ( f,
      run
        [
          ("source", J.String (read_file (Filename.concat env.examples f)));
          ("machine", J.String "dunnington");
        ] )
  in
  match env.size with
  | Full ->
      List.concat_map
        (fun p -> [ builtin p "harpertown"; builtin p "dunnington" ])
        [ "cg"; "sp"; "bodytrack" ]
      @ [ source "fig5.ctam"; source "matvec_shared.ctam" ]
  | Smoke -> [ builtin "cg" "harpertown"; source "fig5.ctam" ]

let stats_of reply =
  match Protocol.response_result reply with
  | Some (J.Obj _ as r) -> J.member "stats" r
  | _ -> None

let connections () = min 2 (Meter.nproc ())

type daemon = { pid : int; socket : string }

(* Daemons not yet stopped, so an aborted run still ends them. *)
let live = ref []

let stop_daemon d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  ignore (Client.one_shot ~socket:d.socket (J.Obj [ ("op", J.String "shutdown") ]));
  let rec wait deadline =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Meter.now () < deadline ->
        Unix.sleepf 0.02;
        wait deadline
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait (Meter.now () +. 10.);
  try Sys.remove d.socket with Sys_error _ -> ()

let stop_all () = List.iter stop_daemon !live

let start_daemon env n =
  let socket = Filename.concat env.tmp (Printf.sprintf "d%d.sock" n) in
  let journal = Filename.concat env.tmp (Printf.sprintf "d%d.jsonl" n) in
  let log =
    Unix.openfile
      (Filename.concat env.tmp (Printf.sprintf "d%d.log" n))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process env.ctamap
          [| env.ctamap; "serve"; "--socket"; socket; "--workers"; "2";
             "--journal"; journal |]
          Unix.stdin log log)
  in
  let d = { pid; socket } in
  live := d :: !live;
  let ping = J.Obj [ ("op", J.String "ping") ] in
  let deadline = Meter.now () +. 30. in
  let rec ready () =
    match Client.one_shot ~socket ping with
    | Ok _ -> ()
    | Error e ->
        if Meter.now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0
        then begin
          stop_daemon d;
          failwith ("daemon did not start: " ^ e)
        end;
        Unix.sleepf 0.02;
        ready ()
  in
  ready ();
  d

let daemons_started = ref 0

(* The daemon journals a request after replying to it; a ping on the
   same connection returns once that is done, so a reference taken
   after [settle] does not race the daemon. *)
let settle fd = ignore (Client.request fd (J.Obj [ ("op", J.String "ping") ]))

(* One connection of the closed loop: the primed requests it has left to
   send this pass, and the one in flight. *)
type conn = {
  fd : Unix.file_descr;
  rng : Random.State.t;
  mutable queue : (string * J.t * J.t) list;  (** key, request, primed statistics *)
  mutable inflight : (string * J.t * int * float * float) option;
      (** key, primed statistics, operation id, send start and end *)
}

(* Drive every connection from this one thread, each sending its next
   request once its reply is in: a closed loop with one request per
   connection outstanding.  A single client thread keeps the decoding of
   replies off other domains, whose stop-the-world minor collections
   would tie the client's latency to how the host schedules them.  A
   latency runs from the send to the decoded reply; a failed request
   retires its connection for the pass. *)
let closed_loop t conns =
  let retire c msg =
    fail t msg;
    c.queue <- [];
    c.inflight <- None
  in
  let send c =
    match c.queue with
    | [] -> c.inflight <- None
    | (key, r, st) :: rest -> (
        c.queue <- rest;
        t.attempted <- t.attempted + 1;
        let id = t.next_op in
        t.next_op <- id + 1;
        let t0 = Meter.now () in
        match Protocol.write_json c.fd r with
        | () -> c.inflight <- Some (key, st, id, t0, Meter.now ())
        | exception e -> retire c (key ^ ": send: " ^ Printexc.to_string e))
  in
  let receive c (key, st, id, t0, t1) =
    let t2 = Meter.now () in
    match Protocol.read_frame c.fd with
    | Error _ -> retire c (key ^ ": no reply frame")
    | exception e -> retire c (key ^ ": receive: " ^ Printexc.to_string e)
    | Ok payload -> (
        let t3 = Meter.now () in
        let decoded = J.parse payload in
        let t4 = Meter.now () in
        let parent = Span.record ~op:id "request" t0 t4 in
        List.iter
          (fun (name, a, b) -> ignore (Span.record ~parent ~op:id name a b))
          [ ("send", t0, t1); ("recv", t2, t3); ("decode", t3, t4) ];
        match decoded with
        | Error e -> retire c (key ^ ": " ^ e)
        | Ok reply when not (Protocol.response_cached reply) ->
            retire c (key ^ ": warm reply not from the cache")
        | Ok reply when stats_of reply <> Some st ->
            retire c (key ^ ": warm statistics differ")
        | Ok _ ->
            t.pending <- (t4 -. t0) :: t.pending;
            send c)
  in
  List.iter send conns;
  let rec loop () =
    match List.filter (fun c -> c.inflight <> None) conns with
    | [] -> ()
    | busy ->
        (match Unix.select (List.map (fun c -> c.fd) busy) [] [] 30. with
        | [], _, _ -> List.iter (fun c -> retire c "no reply within 30 s") busy
        | ready, _, _ ->
            List.iter
              (fun c ->
                match c.inflight with
                | Some f when List.mem c.fd ready -> receive c f
                | _ -> ())
              busy
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
  in
  loop ()

let serve env setup =
  let reqs = serve_requests env in
  incr daemons_started;
  let d = within setup (fun () -> start_daemon env !daemons_started) in
  (* Prime every key (cold: the whole pipeline), one request at a time so
     each gets host-speed references of its own. *)
  let prime fd (key, r) =
    match Client.request fd r with
    | Ok reply
      when Protocol.response_ok reply && not (Protocol.response_cached reply)
      -> (
        match stats_of reply with
        | Some st -> (key, r, st)
        | None -> failwith (key ^ ": reply carries no stats"))
    | Ok reply -> failwith (key ^ ": priming failed: " ^ J.to_string ~minify:true reply)
    | Error e -> failwith (key ^ ": " ^ e)
  in
  let primed =
    match
      let fd = Client.connect d.socket in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.map
            (fun kr ->
              within setup (fun () ->
                  let p = prime fd kr in
                  settle fd;
                  p))
            reqs)
    with
    | l -> l
    | exception e ->
        stop_daemon d;
        raise e
  in
  {
    measure =
      (fun t ~seconds ->
        (* Each pass, every connection replays the primed keys [rounds]
           times in its own seeded order; the host-speed reference is
           taken between passes, while no request is in flight. *)
        let rounds = match env.size with Full -> 4 | Smoke -> 1 in
        let conns =
          List.init (connections ()) (fun w ->
              {
                fd = Client.connect d.socket;
                rng = Random.State.make [| env.seed; w |];
                queue = [];
                inflight = None;
              })
        in
        Fun.protect
          ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns)
          (fun () ->
            passes ~seconds (fun () ->
                segment t (fun () ->
                    List.iter
                      (fun c ->
                        c.queue <-
                          List.concat (List.init rounds (fun _ -> Meter.shuffle c.rng primed)))
                      conns;
                    closed_loop t conns;
                    List.iter (fun c -> settle c.fd) conns))));
    finish =
      (fun () ->
        (* Served statistics must equal the same request executed
           in-process, as the one-shot CLI would. *)
        let same =
          Ctam_util.Parallel.map ~domains:(connections ())
            (fun (_, r, st) ->
              match Request.parse r with
              | Error _ -> false
              | Ok req -> J.member "stats" (fst (Request.execute req)) = Some st)
            primed
        in
        ( [ ("served statistics equal in-process execution",
             List.for_all Fun.id same) ],
          List.map (fun (key, _, st) -> (key, Stats.of_json st)) primed ));
    rss_pid = Some d.pid;
    close = (fun () -> stop_daemon d);
  }

(* --- registry -------------------------------------------------------------- *)

type t = {
  name : string;
  why : string;
  prepare : env -> tally -> instance;
      (** [prepare env] generates inputs once, untimed, and returns the
          set-up, which times its steps as segments of the tally *)
}

let all =
  [
    {
      name = "sweep";
      why = "mapper-bound: every scheme x suite kernel on Dunnington/16";
      prepare = sweep;
    };
    {
      name = "fullsize";
      why = "simulator-bound: full-capacity Dunnington, dense/streamed/sampled";
      prepare = fullsize;
    };
    {
      name = "trace";
      why = "no mapper: Lackey parsing and the non-LRU replacement policies";
      prepare = (fun env -> trace (trace_file env));
    };
    {
      name = "serve";
      why = "no pipeline: daemon transport, keying and plan-cache hits";
      prepare = serve;
    };
  ]

let by_name name = List.find_opt (fun w -> w.name = name) all
