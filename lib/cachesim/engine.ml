type phase = int array array

let encode_access ~addr ~write = (addr * 2) + if write then 1 else 0
let access_addr e = e / 2
let access_write e = e land 1 = 1
let decode_access e = (access_addr e, access_write e)

let issue_cost = 1
let barrier_cost = 64

(* Lazy access streams: a cursor hands out encoded accesses a chunk at
   a time, so generator-backed traces never materialize and the engine
   reads every access from an array.  [length] is known up front
   (iteration domains have closed-form cardinalities), which keeps the
   heap scheduling identical to the array path.  Convention: a
   consumer calls [reset] before its first [refill]; the engine resets
   every cursor at the start of each phase, so one compiled stream can
   be run many times (tuning sweeps). *)
type cursor = {
  length : int;
  reset : unit -> unit;
  refill : unit -> int array * int;
}

type stream = Dense of int array | Gen of cursor
type stream_phase = stream array

let dense a = Dense a
let stream_length = function Dense a -> Array.length a | Gen c -> c.length

(* The next chunk of [c] while [left] > 0 of its accesses are still to
   come, cut to at most [left]: every consumer takes exactly [length]
   accesses, whatever the cursor would hand out past them.  The one
   place a cursor that ends early is caught. *)
let take c ~left =
  let ((buf, n) as chunk) = c.refill () in
  if n < 1 then invalid_arg "Engine: cursor ended before its length"
  else if n <= left then chunk
  else (buf, left)

(* [f buf n] on each chunk of the stream, in order. *)
let iter_chunks f = function
  | Dense a -> f a (Array.length a)
  | Gen c ->
      c.reset ();
      let left = ref c.length in
      while !left > 0 do
        let buf, n = take c ~left:!left in
        f buf n;
        left := !left - n
      done

let force_stream = function
  | Dense a -> a
  | Gen c as s ->
      (* An [int] loop, not [Array.blit]: a blit into an array on the
         major heap goes through the write barrier for every word. *)
      let out = Array.make c.length 0 in
      let k = ref 0 in
      iter_chunks
        (fun buf n ->
          let at = !k in
          for i = 0 to n - 1 do
            out.(at + i) <- buf.(i)
          done;
          k := at + n)
        s;
      out

let of_phase (p : phase) : stream_phase = Array.map dense p
let force_phase (sp : stream_phase) : phase = Array.map force_stream sp

let stream_concat = function
  | [ s ] -> s
  | streams
    when List.for_all (function Dense _ -> true | Gen _ -> false) streams ->
      Dense (Array.concat (List.map force_stream streams))
  | streams ->
      (* Dense parts are handed out whole, generator parts chunk by
         chunk; [left] accesses of part [!idx - 1] are still to come. *)
      let parts = Array.of_list streams in
      let idx = ref 0 and left = ref 0 in
      let reset () =
        idx := 0;
        left := 0
      in
      let rec refill () =
        if !left > 0 then
          match parts.(!idx - 1) with
          | Gen c ->
              let ((_, n) as chunk) = take c ~left:!left in
              left := !left - n;
              chunk
          | Dense _ -> assert false
        else if !idx >= Array.length parts then ([||], 0)
        else begin
          incr idx;
          match parts.(!idx - 1) with
          | Dense a when Array.length a > 0 -> (a, Array.length a)
          | Dense _ -> refill ()
          | Gen c ->
              c.reset ();
              left := c.length;
              refill ()
        end
      in
      let length =
        Array.fold_left (fun acc s -> acc + stream_length s) 0 parts
      in
      Gen { length; reset; refill }

(* Self-telemetry: aggregates recorded once per run (never inside the
   per-access loop), so the null-probe fast path stays untouched and
   the simulated statistics are byte-identical with telemetry on, off,
   or absent — asserted by test_telemetry and the heap-vs-scan
   differential.  Retire throughput is derivable on scrape:
   accesses_total / run_seconds sum. *)
module Tel = Ctam_telemetry

let tel_runs =
  Tel.Metrics.Counter.v ~labels:[ "engine" ]
    ~help:"Simulator runs completed" "ctam_engine_runs_total"

let tel_accesses =
  Tel.Metrics.Counter.v ~labels:[ "engine" ]
    ~help:"Accesses simulated (issued to the hierarchy)"
    "ctam_engine_accesses_total"

let tel_cycles =
  Tel.Metrics.Counter.v ~labels:[ "engine" ]
    ~help:"Simulated cycles accumulated across runs"
    "ctam_engine_cycles_total"

let tel_seconds =
  Tel.Metrics.Histogram.v ~labels:[ "engine" ]
    ~help:"Wall-clock seconds of one engine run" "ctam_engine_run_seconds"

let tel_sampled_runs =
  Tel.Metrics.Counter.v ~labels:[ "factor" ]
    ~help:"Set-sampled simulator runs completed"
    "ctam_engine_sampled_runs_total"

let tel_sampled_accesses =
  Tel.Metrics.Counter.v ~labels:[ "factor" ]
    ~help:"Accesses simulated through sampled sets"
    "ctam_engine_sampled_accesses_total"

let tel_skipped_accesses =
  Tel.Metrics.Counter.v ~labels:[ "factor" ]
    ~help:"Accesses skipped by set sampling (latency estimated)"
    "ctam_engine_skipped_accesses_total"

type tel_series = {
  ts_runs : Tel.Metrics.Counter.series;
  ts_accesses : Tel.Metrics.Counter.series;
  ts_cycles : Tel.Metrics.Counter.series;
  ts_seconds : Tel.Metrics.Histogram.series;
}

let tel_series engine =
  {
    ts_runs = Tel.Metrics.Counter.series tel_runs [ engine ];
    ts_accesses = Tel.Metrics.Counter.series tel_accesses [ engine ];
    ts_cycles = Tel.Metrics.Counter.series tel_cycles [ engine ];
    ts_seconds = Tel.Metrics.Histogram.series tel_seconds [ engine ];
  }

let tel_heap = tel_series "heap"
let tel_scan = tel_series "scan"

let tel_record ts ~t_start ~accesses (stats : Stats.t) =
  Tel.Metrics.Counter.inc ts.ts_runs;
  Tel.Metrics.Counter.inc ~by:accesses ts.ts_accesses;
  Tel.Metrics.Counter.inc ~by:(max 0 stats.Stats.cycles) ts.ts_cycles;
  Tel.Metrics.Histogram.observe ts.ts_seconds (Unix.gettimeofday () -. t_start)

let tel_record_sampled ~factor ~sampled ~skipped =
  let f = [ string_of_int factor ] in
  Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_sampled_runs f);
  Tel.Metrics.Counter.inc ~by:sampled
    (Tel.Metrics.Counter.series tel_sampled_accesses f);
  Tel.Metrics.Counter.inc ~by:skipped
    (Tel.Metrics.Counter.series tel_skipped_accesses f)

(* Shared prologue/epilogue of the engine variants. *)

let check_stream_phases n phases =
  List.iter
    (fun (p : stream_phase) ->
      if Array.length p <> n then
        invalid_arg "Engine.run: phase core-count mismatch")
    phases

(* When the hierarchy samples sets, only lines with
   [line mod factor = 0] touched the caches: the per-level hit/miss
   counters and the memory-access count describe 1/factor of the line
   population, so they extrapolate by the factor.  Cycle counters need
   no scaling — skipped accesses were charged an estimated latency as
   they were issued. *)
let finish h clock busy total_accesses nphases =
  let factor = Hierarchy.sample_factor h in
  let per_level = Hierarchy.level_stats h in
  let per_level =
    if factor = 1 then per_level
    else
      List.map
        (fun ls ->
          {
            ls with
            Stats.hits = ls.Stats.hits * factor;
            misses = ls.Stats.misses * factor;
          })
        per_level
  in
  {
    Stats.per_level;
    mem_accesses = Hierarchy.mem_accesses h * factor;
    total_accesses;
    cycles = Array.fold_left max 0 clock;
    core_cycles = busy;
    barriers = max 0 (nphases - 1);
  }

(* --- The engine proper -------------------------------------------------- *)

(* One run's state.  Each core reads its stream through a view: the
   current chunk, how many of its accesses to use, the read position,
   and the accesses of the stream not yet in a chunk.  A dense stream
   is its own single chunk. *)
type run = {
  h : Hierarchy.t;
  probe : Probe.t;
  observed : bool;
  line_size : int;
  (* [max_int] when uncapped: a core clock can never reach it. *)
  cap : int;
  clock : int array;
  busy : int array;
  mutable streams : stream_phase;
  chunk : int array array;
  chunk_len : int array;
  pos : int array;
  left : int array;
  (* Set sampling: an encoded access [e] is simulated when
     [(e lsr shift) land mask = 0] (its line is a multiple of the
     factor).  Per-core running mean of observed latency estimates the
     cost of skipped accesses; fresh per phase (keeps phases pure for
     the memo), defaulting to the core's miss latency until a sampled
     access is seen. *)
  shift : int;
  mask : int;
  lat_sum : int array;
  lat_cnt : int array;
  miss_lat : int array;
  (* The batched step's next sampled access per core, -1 for none. *)
  pending : int array;
  mutable sampled : int;
  mutable skipped : int;
  (* Index min-heap over the cores that still have work, keyed by
     (clock, core id) lexicographically.  The reference scan picks the
     smallest clock and breaks ties toward the lowest core id; the
     lexicographic key makes the heap minimum that exact core, so the
     event order — and every derived statistic — is bit-identical
     (proved by the differential tests in test_cachesim). *)
  heap : int array;
  mutable size : int;
  mutable events : int;
  mutable capped : bool;
  mutable accesses : int;
}

let create_run ~max_cycles h =
  let n = (Hierarchy.topology h).Ctam_arch.Topology.num_cores in
  let probe = Hierarchy.probe h in
  {
    h;
    probe;
    observed = not (Probe.is_null probe);
    line_size = Hierarchy.line_size h;
    cap = (match max_cycles with Some c -> c | None -> max_int);
    clock = Array.make n 0;
    busy = Array.make n 0;
    streams = [||];
    chunk = Array.make n [||];
    chunk_len = Array.make n 0;
    pos = Array.make n 0;
    left = Array.make n 0;
    shift = 1 + Hierarchy.line_shift h;
    mask = Hierarchy.sample_factor h - 1;
    lat_sum = Array.make n 0;
    lat_cnt = Array.make n 0;
    miss_lat = Array.init n (fun c -> Hierarchy.miss_latency h ~core:c);
    pending = Array.make n (-1);
    sampled = 0;
    skipped = 0;
    heap = Array.make (max 1 n) 0;
    size = 0;
    events = 0;
    capped = false;
    accesses = 0;
  }

let load st streams =
  st.streams <- streams;
  Array.iteri
    (fun c s ->
      st.pos.(c) <- 0;
      st.pending.(c) <- -1;
      st.lat_sum.(c) <- 0;
      st.lat_cnt.(c) <- 0;
      match s with
      | Dense a ->
          st.chunk.(c) <- a;
          st.chunk_len.(c) <- Array.length a;
          st.left.(c) <- 0
      | Gen cur ->
          cur.reset ();
          st.chunk.(c) <- [||];
          st.chunk_len.(c) <- 0;
          st.left.(c) <- cur.length)
    streams

(* Load core [c]'s next chunk.  Called only when its next access is
   needed, so a capped run stops drawing from a generator exactly where
   it stops issuing. *)
let refill st c =
  match st.streams.(c) with
  | Gen cur ->
      let buf, n = take cur ~left:st.left.(c) in
      st.chunk.(c) <- buf;
      st.chunk_len.(c) <- n;
      st.pos.(c) <- 0;
      st.left.(c) <- st.left.(c) - n
  | Dense _ -> assert false (* its one chunk is loaded with the phase *)

(* The helpers the issue steps and the event loop call per access are
   inlined: as calls they made a dense exact run (galgel Base on the
   full-capacity Dunnington) about 20% slower. *)
let[@inline] exhausted st c =
  st.pos.(c) >= st.chunk_len.(c) && st.left.(c) = 0

let[@inline] finished st c = exhausted st c && st.pending.(c) < 0

let[@inline] next st c =
  if st.pos.(c) >= st.chunk_len.(c) then refill st c;
  let i = st.pos.(c) in
  st.pos.(c) <- i + 1;
  st.chunk.(c).(i)

(* Accesses the phase's streams handed out: all of them, or on a capped
   run the issued prefix. *)
let consumed st =
  let k = ref 0 in
  Array.iteri
    (fun c s ->
      k := !k + stream_length s - st.left.(c) - (st.chunk_len.(c) - st.pos.(c)))
    st.streams;
  !k

(* --- Issue steps: each issues core [c]'s next event and returns its
   cost in cycles.  One is chosen per run. *)

let exact st c =
  let e = next st c in
  (* Decoded in place: [decode_access] would allocate its pair on
     every access. *)
  let addr = access_addr e and write = access_write e in
  if st.observed then
    st.probe.Probe.on_access ~core:c ~addr ~line:(addr / st.line_size) ~write;
  issue_cost + Hierarchy.access st.h ~core:c ~addr ~write

let issue_sampled st c e =
  st.sampled <- st.sampled + 1;
  let lat =
    Hierarchy.access st.h ~core:c ~addr:(access_addr e)
      ~write:(access_write e)
  in
  st.lat_sum.(c) <- st.lat_sum.(c) + lat;
  st.lat_cnt.(c) <- st.lat_cnt.(c) + 1;
  issue_cost + lat

let estimate st c =
  issue_cost
  + if st.lat_cnt.(c) = 0 then st.miss_lat.(c)
    else st.lat_sum.(c) / st.lat_cnt.(c)

(* Per access: under a probe, so [on_access] still fires per access in
   global clock order; under a cap, so the cut point is exact; and when
   the line size is not a power of two. *)
let sampled st c =
  let e = next st c in
  let addr = access_addr e in
  if st.observed then
    st.probe.Probe.on_access ~core:c ~addr ~line:(addr / st.line_size)
      ~write:(access_write e);
  if Hierarchy.line_of st.h addr land st.mask = 0 then issue_sampled st c e
  else begin
    st.skipped <- st.skipped + 1;
    estimate st c
  end

(* Skip batching: a run of consecutive skipped accesses on one core
   touches no shared state — no cache, no probe — so it is charged as a
   single event.  The running-mean estimate cannot change mid-run (only
   this core's sampled accesses update it), so one batched charge
   equals the per-access charges exactly.  The next sampled access is
   held in [pending] and issued as its own event at its true clock,
   which keeps the cross-core order of [Hierarchy.access] calls — and
   therefore every replacement decision and statistic — identical to
   the per-access step. *)
let batched st c =
  let e = st.pending.(c) in
  if e >= 0 then begin
    st.pending.(c) <- -1;
    issue_sampled st c e
  end
  else begin
    let shift = st.shift and mask = st.mask in
    let found = ref (-1) and skipped = ref 0 in
    while !found < 0 && not (exhausted st c) do
      if st.pos.(c) >= st.chunk_len.(c) then refill st c;
      let buf = st.chunk.(c) and len = st.chunk_len.(c) in
      let i = ref st.pos.(c) in
      while !found < 0 && !i < len do
        let e = buf.(!i) in
        incr i;
        if (e lsr shift) land mask = 0 then found := e else incr skipped
      done;
      st.pos.(c) <- !i
    done;
    st.skipped <- st.skipped + !skipped;
    if !skipped = 0 then issue_sampled st c !found
    else begin
      st.pending.(c) <- !found;
      !skipped * estimate st c
    end
  end

(* --- The event loop ---------------------------------------------------- *)

let[@inline] less st a b =
  st.clock.(a) < st.clock.(b) || (st.clock.(a) = st.clock.(b) && a < b)

let sift_down st i0 =
  let heap = st.heap in
  let i = ref i0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < st.size && less st heap.(l) heap.(!s) then s := l;
    if r < st.size && less st heap.(r) heap.(!s) then s := r;
    if !s = !i then stop := true
    else begin
      let tmp = heap.(!i) in
      heap.(!i) <- heap.(!s);
      heap.(!s) <- tmp;
      i := !s
    end
  done

(* The core with the smallest local clock (among cores with work left)
   issues the next event. *)
let run_phase st step =
  st.size <- 0;
  Array.iteri
    (fun c _ ->
      if not (finished st c) then begin
        st.heap.(st.size) <- c;
        st.size <- st.size + 1
      end)
    st.streams;
  for i = (st.size / 2) - 1 downto 0 do
    sift_down st i
  done;
  while st.size > 0 do
    let c = st.heap.(0) in
    (* Too hot for a clock read per event: poll the request deadline
       once per [Deadline.stride] events. *)
    st.events <- st.events + 1;
    if st.events land (Ctam_util.Deadline.stride - 1) = 0 then
      Ctam_util.Deadline.check ();
    (* The heap minimum is the globally smallest clock, so once it
       reaches the cap every remaining access lies past the cap and the
       rest of the run can be cut — without drawing another access from
       any generator. *)
    if st.clock.(c) >= st.cap then begin
      st.capped <- true;
      st.size <- 0
    end
    else begin
      let cost = step st c in
      st.clock.(c) <- st.clock.(c) + cost;
      st.busy.(c) <- st.busy.(c) + cost;
      if st.observed then st.probe.Probe.on_retire ~core:c ~cycles:st.clock.(c);
      if finished st c then begin
        st.size <- st.size - 1;
        st.heap.(0) <- st.heap.(st.size)
      end;
      (* The root's key only grew (or was replaced): restore the heap
         by sifting down. *)
      sift_down st 0
    end
  done;
  st.accesses <- st.accesses + consumed st

(* --- Memoization --------------------------------------------------------- *)

(* Phase key: hierarchy configuration, entry cache state, and every
   stream's length and contents.  A dense stream and the cursor that
   would generate it mix the same word sequence, so representation
   does not split the memo. *)
let phase_key st streams =
  let hp = ref (Memo.mix Memo.seed (Hierarchy.config_hash st.h)) in
  let sh1, sh2 = Hierarchy.state_hash st.h in
  hp := Memo.mix (Memo.mix !hp sh1) sh2;
  Array.iter
    (fun s ->
      hp := Memo.mix !hp (stream_length s);
      iter_chunks
        (fun buf n ->
          for i = 0 to n - 1 do
            hp := Memo.mix !hp buf.(i)
          done)
        s)
    streams;
  !hp

(* Replay the phase on a hit; on a miss run [simulate] and store its
   deltas.  Phase-entry clocks are always uniform (zero initially,
   [tmax + barrier_cost] after each barrier), so deltas are
   translation-invariant. *)
let memoized st memo streams simulate =
  let key, check = phase_key st streams in
  match Memo.find memo ~key ~check with
  | Some e ->
      let bump a = Array.iteri (fun c d -> a.(c) <- a.(c) + d) in
      bump st.clock e.Memo.clock_delta;
      bump st.busy e.Memo.busy_delta;
      Hierarchy.restore st.h e.Memo.exit_lines;
      Hierarchy.bump_counts st.h ~hits:e.Memo.hits_delta
        ~misses:e.Memo.misses_delta ~mem:e.Memo.mem_delta;
      st.accesses <- st.accesses + e.Memo.accesses
  | None ->
      let clock0 = Array.copy st.clock and busy0 = Array.copy st.busy in
      let hits0, misses0 = Hierarchy.instance_counts st.h in
      let mem0 = Hierarchy.mem_accesses st.h and acc0 = st.accesses in
      simulate ();
      let hits1, misses1 = Hierarchy.instance_counts st.h in
      let delta now before = Array.mapi (fun i x -> x - before.(i)) now in
      Memo.store memo ~key
        {
          Memo.clock_delta = delta st.clock clock0;
          busy_delta = delta st.busy busy0;
          exit_lines = Hierarchy.snapshot st.h;
          hits_delta = delta hits1 hits0;
          misses_delta = delta misses1 misses0;
          mem_delta = Hierarchy.mem_accesses st.h - mem0;
          accesses = st.accesses - acc0;
          check;
        }

(* Barrier after every phase but the last. *)
let end_phase st pi ~last =
  let tmax = Array.fold_left max 0 st.clock in
  if st.observed then st.probe.Probe.on_phase_end ~phase:pi ~cycles:tmax;
  if not last then begin
    let resume = tmax + barrier_cost in
    if st.observed then st.probe.Probe.on_barrier_enter ~phase:pi ~cycles:tmax;
    Array.fill st.clock 0 (Array.length st.clock) resume;
    if st.observed then st.probe.Probe.on_barrier_exit ~phase:pi ~cycles:resume
  end

let run_streams ?max_cycles ?memo h (phases : stream_phase list) =
  let tel = Tel.Metrics.enabled () in
  let t_start = if tel then Unix.gettimeofday () else 0. in
  check_stream_phases (Hierarchy.topology h).Ctam_arch.Topology.num_cores
    phases;
  Hierarchy.clear h;
  let st = create_run ~max_cycles h in
  let factor = Hierarchy.sample_factor h in
  let pure = (not st.observed) && st.cap = max_int in
  let step =
    if factor = 1 then exact
    else if pure && Hierarchy.line_shift h >= 0 then batched
    else sampled
  in
  (* Memoization requires phase purity: no probe (its event stream is a
     side effect replay cannot reproduce) and no cap (a capped phase's
     deltas describe a prefix). *)
  let memo = if pure then memo else None in
  let nphases = List.length phases in
  List.iteri
    (fun pi streams ->
      if not st.capped then begin
        Ctam_util.Deadline.check ();
        let simulate () =
          if st.observed then st.probe.Probe.on_phase_start ~phase:pi;
          load st streams;
          run_phase st step
        in
        (match memo with
        | Some m -> memoized st m streams simulate
        | None -> simulate ());
        if not st.capped then end_phase st pi ~last:(pi = nphases - 1)
      end)
    phases;
  let stats = finish h st.clock st.busy st.accesses nphases in
  if tel then begin
    tel_record tel_heap ~t_start ~accesses:st.accesses stats;
    if factor > 1 then
      tel_record_sampled ~factor ~sampled:st.sampled ~skipped:st.skipped
  end;
  stats

let run ?max_cycles h phases =
  run_streams ?max_cycles h (List.map of_phase phases)

(* The seed implementation: an O(num_cores) linear scan for the
   minimum-clock core before every access, over materialized streams.
   Kept as the reference path for the differential tests, the
   heap-vs-scan micro-benchmark and the policy sweep's LRU gate; not
   used by any driver. *)
let run_reference_streams h (phases : stream_phase list) =
  if Hierarchy.sample_factor h > 1 then
    invalid_arg "Engine.run_reference_streams: sampled hierarchy unsupported";
  let tel = Tel.Metrics.enabled () in
  let t_start = if tel then Unix.gettimeofday () else 0. in
  let topo = Hierarchy.topology h in
  let n = topo.Ctam_arch.Topology.num_cores in
  check_stream_phases n phases;
  Hierarchy.clear h;
  let probe = Hierarchy.probe h in
  let observed = not (Probe.is_null probe) in
  let line_size = Hierarchy.line_size h in
  let clock = Array.make n 0 in
  let busy = Array.make n 0 in
  let total_accesses = ref 0 in
  let nphases = List.length phases in
  List.iteri
    (fun pi streams ->
      if observed then probe.Probe.on_phase_start ~phase:pi;
      let streams = force_phase streams in
      let pos = Array.make n 0 in
      let lens = Array.map Array.length streams in
      let remaining = ref 0 in
      Array.iter (fun l -> remaining := !remaining + l) lens;
      total_accesses := !total_accesses + !remaining;
      while !remaining > 0 do
        let best = ref (-1) in
        for c = 0 to n - 1 do
          if pos.(c) < lens.(c) && (!best < 0 || clock.(c) < clock.(!best))
          then best := c
        done;
        let c = !best in
        let e = streams.(c).(pos.(c)) in
        pos.(c) <- pos.(c) + 1;
        let addr, write = decode_access e in
        if observed then
          probe.Probe.on_access ~core:c ~addr ~line:(addr / line_size) ~write;
        let lat = Hierarchy.access h ~core:c ~addr ~write in
        let cost = issue_cost + lat in
        clock.(c) <- clock.(c) + cost;
        busy.(c) <- busy.(c) + cost;
        if observed then probe.Probe.on_retire ~core:c ~cycles:clock.(c);
        decr remaining
      done;
      if observed then
        probe.Probe.on_phase_end ~phase:pi
          ~cycles:(Array.fold_left max 0 clock);
      if pi < nphases - 1 then begin
        let tmax = Array.fold_left max 0 clock in
        if observed then probe.Probe.on_barrier_enter ~phase:pi ~cycles:tmax;
        for c = 0 to n - 1 do
          clock.(c) <- tmax + barrier_cost
        done;
        if observed then
          probe.Probe.on_barrier_exit ~phase:pi
            ~cycles:(tmax + barrier_cost)
      end)
    phases;
  let stats = finish h clock busy !total_accesses nphases in
  if tel then tel_record tel_scan ~t_start ~accesses:!total_accesses stats;
  stats

let run_reference h phases =
  run_reference_streams h (List.map of_phase phases)

let run_serial h stream =
  let topo = Hierarchy.topology h in
  let n = topo.Ctam_arch.Topology.num_cores in
  let phase = Array.make n [||] in
  phase.(0) <- stream;
  run h [ phase ]
