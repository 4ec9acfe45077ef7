type phase = int array array

let encode_access ~addr ~write = (addr * 2) + if write then 1 else 0
let access_addr e = e / 2
let access_write e = e land 1 = 1
let decode_access e = (access_addr e, access_write e)

type config = { issue_cost : int; barrier_cost : int }

let default_config = { issue_cost = 1; barrier_cost = 64 }

(* Lazy access streams (PR 7): a cursor yields encoded accesses on
   demand, so generator-backed traces never materialize.  [length] is
   known up front (iteration domains have closed-form cardinalities),
   which keeps the heap scheduling identical to the array path.
   Convention: a consumer calls [reset] before its first [pull]; the
   engine resets every cursor at the start of each phase, so one
   compiled stream can be run many times (tuning sweeps). *)
type cursor = {
  length : int;
  pull : unit -> int;
  reset : unit -> unit;
  skip_to_sample : shift:int -> mask:int -> skipped:int ref -> int;
}
(* [skip_to_sample] is the sampled fast path: consume accesses while
   [(e lsr shift) land mask <> 0], counting each into [skipped], and
   return the first access that passes the filter (consumed) or -1 at
   end of stream.  Semantically it is exactly a loop of [pull]s, but
   implemented where the generator's chunk buffer is local, so a
   skipped access costs an array read and a mask test instead of a
   closure call. *)

type stream = Dense of int array | Gen of cursor
type stream_phase = stream array

let dense a = Dense a
let stream_length = function Dense a -> Array.length a | Gen c -> c.length

let force_stream = function
  | Dense a -> a
  | Gen c ->
      c.reset ();
      let n = c.length in
      let out = Array.make n 0 in
      (* Explicit loop: pulls are effectful and must run in index
         order ([Array.init] evaluation order is unspecified). *)
      for i = 0 to n - 1 do
        out.(i) <- c.pull ()
      done;
      out

let of_phase (p : phase) : stream_phase = Array.map dense p
let force_phase (sp : stream_phase) : phase = Array.map force_stream sp

let stream_concat streams =
  match streams with
  | [ s ] -> s
  | _ ->
  let all_dense =
    List.for_all (function Dense _ -> true | Gen _ -> false) streams
  in
  if all_dense then
    Dense
      (Array.concat
         (List.map (function Dense a -> a | Gen _ -> assert false) streams))
  else begin
    let parts = Array.of_list streams in
    let total = Array.fold_left (fun acc s -> acc + stream_length s) 0 parts in
    let idx = ref 0 in
    let pos = ref 0 in
    let reset () =
      idx := 0;
      pos := 0;
      Array.iter (function Gen c -> c.reset () | Dense _ -> ()) parts
    in
    let pull () =
      let rec go () =
        if !idx >= Array.length parts then
          invalid_arg "Engine.stream_concat: pull past end"
        else
          let s = parts.(!idx) in
          if !pos >= stream_length s then begin
            incr idx;
            pos := 0;
            go ()
          end
          else begin
            let v =
              match s with Dense a -> a.(!pos) | Gen c -> c.pull ()
            in
            incr pos;
            v
          end
      in
      go ()
    in
    (* The sampled fast path must survive concatenation (mapped streams
       are per-group cursors chained per core), so delegate part by
       part: dense parts scan in place, generator parts use their own
       fast path. *)
    let skip_to_sample ~shift ~mask ~skipped =
      let found = ref (-1) in
      let finished = ref false in
      while !found < 0 && not !finished do
        if !idx >= Array.length parts then finished := true
        else begin
          let s = parts.(!idx) in
          let slen = stream_length s in
          if !pos >= slen then begin
            incr idx;
            pos := 0
          end
          else
            match s with
            | Dense a ->
                let i = ref !pos in
                while !found < 0 && !i < slen do
                  let e = a.(!i) in
                  incr i;
                  if e lsr shift land mask = 0 then found := e
                  else incr skipped
                done;
                pos := !i
            | Gen c ->
                let n0 = !skipped in
                let f = c.skip_to_sample ~shift ~mask ~skipped in
                pos := !pos + (!skipped - n0) + (if f >= 0 then 1 else 0);
                if f >= 0 then found := f
        end
      done;
      !found
    in
    Gen { length = total; pull; reset; skip_to_sample }
  end

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
  Tel.Metrics.Histogram.observe ts.ts_seconds (Tel.Profile.now () -. t_start)

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

(* The engine proper: event-driven interleaving over lazy or dense
   per-core streams, with optional set sampling (driven by the
   hierarchy's [sample_factor]) and optional per-phase memoization. *)
let run_streams ?(config = default_config) ?max_cycles ?memo h
    (phases : stream_phase list) =
  let tel = Tel.Metrics.enabled () in
  let t_start = if tel then Tel.Profile.now () else 0. in
  let topo = Hierarchy.topology h in
  let n = topo.Ctam_arch.Topology.num_cores in
  check_stream_phases n phases;
  Hierarchy.clear h;
  let probe = Hierarchy.probe h in
  let observed = not (Probe.is_null probe) in
  let line_size = Hierarchy.line_size h in
  (* Power-of-two line size as a shift (the common case); -1 disables
     the shift-based skip batching below. *)
  let line_shift =
    let rec go s =
      if 1 lsl s = line_size then s
      else if 1 lsl s > line_size || s > 60 then -1
      else go (s + 1)
    in
    go 0
  in
  let factor = Hierarchy.sample_factor h in
  let sampling = factor > 1 in
  let sample_mask = factor - 1 in
  (* [max_int] sentinel keeps the cap a single integer compare on the
     unobserved fast path; a core clock can never reach it. *)
  let cap = match max_cycles with Some c -> c | None -> max_int in
  let capped = ref false in
  (* Events so far.  The event loop, too hot for a call per event,
     polls the request deadline once per [Deadline.stride] of them;
     every phase also polls it on entry. *)
  let events = ref 0 in
  (* Memoization requires phase purity: no probe (its event stream is a
     side effect replay cannot reproduce) and no cap (a capped phase's
     deltas describe a prefix).  Phase-entry clocks are always uniform
     (zero initially, [tmax + barrier_cost] after each barrier), so
     deltas are translation-invariant. *)
  let memo_active =
    (match memo with Some _ -> true | None -> false)
    && (not observed) && cap = max_int
  in
  let clock = Array.make n 0 in
  let busy = Array.make n 0 in
  let total_accesses = ref 0 in
  let nphases = List.length phases in
  let sampled_count = ref 0 in
  let skipped_count = ref 0 in
  (* Per-core running mean of observed latency estimates the cost of
     skipped accesses; fresh per phase (keeps phases pure for the
     memo), defaulting to the core's miss latency until a sampled
     access is seen. *)
  let lat_sum = Array.make n 0 in
  let lat_cnt = Array.make n 0 in
  let miss_lat =
    if sampling then Array.init n (fun c -> Hierarchy.miss_latency h ~core:c)
    else [||]
  in
  (* Index min-heap over the cores that still have work, keyed by
     (clock, core id) lexicographically.  The reference scan picks the
     smallest clock and breaks ties toward the lowest core id; the
     lexicographic key makes the heap minimum that exact core, so the
     event order — and every derived statistic — is bit-identical
     (proved by the differential tests in test_cachesim). *)
  let heap = Array.make (max 1 n) 0 in
  let size = ref 0 in
  let less a b = clock.(a) < clock.(b) || (clock.(a) = clock.(b) && a < b) in
  let sift_down i0 =
    let i = ref i0 in
    let stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < !size && less heap.(l) heap.(!s) then s := l;
      if r < !size && less heap.(r) heap.(!s) then s := r;
      if !s = !i then stop := true
      else begin
        let tmp = heap.(!i) in
        heap.(!i) <- heap.(!s);
        heap.(!s) <- tmp;
        i := !s
      end
    done
  in
  List.iteri
    (fun pi streams ->
      if !capped then ()
      else begin
        Ctam_util.Deadline.check ();
        (* Phase key: hierarchy configuration, engine costs, entry
           cache state, and every stream's length and contents.  A
           dense stream and the cursor that would generate it mix the
           same word sequence, so representation does not split the
           memo. *)
        let entry_key =
          if memo_active then begin
            let hp = ref (Memo.mix Memo.seed (Hierarchy.config_hash h)) in
            hp := Memo.mix !hp config.issue_cost;
            hp := Memo.mix !hp config.barrier_cost;
            let sh1, sh2 = Hierarchy.state_hash h in
            hp := Memo.mix (Memo.mix !hp sh1) sh2;
            Array.iter
              (fun s ->
                hp := Memo.mix !hp (stream_length s);
                match s with
                | Dense a -> hp := Memo.mix_array !hp a
                | Gen c ->
                    c.reset ();
                    for _ = 1 to c.length do
                      hp := Memo.mix !hp (c.pull ())
                    done)
              streams;
            Some !hp
          end
          else None
        in
        let replayed =
          match (entry_key, memo) with
          | Some (k1, k2), Some m -> (
              match Memo.find m ~key:k1 ~check:k2 with
              | Some e ->
                  for c = 0 to n - 1 do
                    clock.(c) <- clock.(c) + e.Memo.clock_delta.(c);
                    busy.(c) <- busy.(c) + e.Memo.busy_delta.(c)
                  done;
                  Hierarchy.restore h e.Memo.exit_lines;
                  Hierarchy.bump_counts h ~hits:e.Memo.hits_delta
                    ~misses:e.Memo.misses_delta ~mem:e.Memo.mem_delta;
                  total_accesses := !total_accesses + e.Memo.accesses;
                  true
              | None -> false)
          | _ -> false
        in
        if not replayed then begin
          let base_clock = if memo_active then Array.copy clock else [||] in
          let base_busy = if memo_active then Array.copy busy else [||] in
          let hits0, misses0 =
            if memo_active then Hierarchy.instance_counts h else ([||], [||])
          in
          let mem0 = Hierarchy.mem_accesses h in
          let acc0 = !total_accesses in
          if sampling then begin
            Array.fill lat_sum 0 n 0;
            Array.fill lat_cnt 0 n 0
          end;
          if observed then probe.Probe.on_phase_start ~phase:pi;
          (* Skip batching (unobserved, uncapped sampled runs): a run
             of consecutive skipped accesses on one core touches no
             shared state — no cache, no probe — so it can be charged
             as a single heap event.  The next *sampled* access is
             buffered in [pending] and issued as its own event at the
             correct clock, which keeps the cross-core order of
             [Hierarchy.access] calls — and therefore every LRU
             decision and statistic — identical to the per-access
             path.  With a probe attached the per-access path runs
             instead, so [on_access] still fires per access in global
             clock order; with a cap, per-access keeps the cutoff
             point exact. *)
          let batch_skip =
            sampling && (not observed) && cap = max_int && line_shift >= 0
          in
          let pending = Array.make n (-1) in
          let pos = Array.make n 0 in
          let lens = Array.map stream_length streams in
          Array.iter
            (function Gen c -> c.reset () | Dense _ -> ())
            streams;
          (* Event-driven interleaving: the core with the smallest
             local clock (among cores with work left) issues the next
             access. *)
          size := 0;
          for c = 0 to n - 1 do
            if lens.(c) > 0 then begin
              heap.(!size) <- c;
              incr size
            end
          done;
          for i = (!size / 2) - 1 downto 0 do
            sift_down i
          done;
          while !size > 0 do
            let c = heap.(0) in
            incr events;
            if !events land (Ctam_util.Deadline.stride - 1) = 0 then
              Ctam_util.Deadline.check ();
            (* The heap minimum is the globally smallest clock, so once
               it reaches the cap every remaining access lies past the
               cap and the rest of the run can be cut — without pulling
               another access from any generator. *)
            if clock.(c) >= cap then begin
              capped := true;
              size := 0
            end
            else if batch_skip then begin
              let cost =
                if pending.(c) >= 0 then begin
                  (* The sampled access buffered by the previous skip
                     batch, issued at its true clock. *)
                  let e = pending.(c) in
                  let addr = access_addr e and write = access_write e in
                  pending.(c) <- -1;
                  incr sampled_count;
                  let lat = Hierarchy.access h ~core:c ~addr ~write in
                  lat_sum.(c) <- lat_sum.(c) + lat;
                  lat_cnt.(c) <- lat_cnt.(c) + 1;
                  config.issue_cost + lat
                end
                else begin
                  (* Pull the run of skipped accesses up to the next
                     sampled one.  The running-mean estimate cannot
                     change mid-run (only this core's sampled accesses
                     update it), so one batched charge equals the
                     per-access charges exactly. *)
                  let skipped = ref 0 in
                  let found = ref (-1) in
                  (* [e lsr (1 + shift)] is the line index of the
                     encoded access (strip the write bit, then the
                     offset bits) — no tuple, no call, per access. *)
                  (match streams.(c) with
                  | Dense a ->
                      let len = lens.(c) in
                      let i = ref pos.(c) in
                      while !found < 0 && !i < len do
                        let e = a.(!i) in
                        incr i;
                        if e lsr (1 + line_shift) land sample_mask = 0 then
                          found := e
                        else incr skipped
                      done;
                      total_accesses := !total_accesses + (!i - pos.(c));
                      pos.(c) <- !i
                  | Gen cur ->
                      (* The cursor scans its own chunk buffer —
                         identical consumption, no closure call per
                         skipped access. *)
                      let f =
                        cur.skip_to_sample ~shift:(1 + line_shift)
                          ~mask:sample_mask ~skipped
                      in
                      found := f;
                      let consumed = !skipped + if f >= 0 then 1 else 0 in
                      total_accesses := !total_accesses + consumed;
                      pos.(c) <- pos.(c) + consumed);
                  skipped_count := !skipped_count + !skipped;
                  if !skipped = 0 then begin
                    (* First access of the run is sampled: issue it
                       now (its clock is unchanged). *)
                    let addr = access_addr !found
                    and write = access_write !found in
                    incr sampled_count;
                    let lat = Hierarchy.access h ~core:c ~addr ~write in
                    lat_sum.(c) <- lat_sum.(c) + lat;
                    lat_cnt.(c) <- lat_cnt.(c) + 1;
                    config.issue_cost + lat
                  end
                  else begin
                    pending.(c) <- !found;
                    let est =
                      if lat_cnt.(c) = 0 then miss_lat.(c)
                      else lat_sum.(c) / lat_cnt.(c)
                    in
                    !skipped * (config.issue_cost + est)
                  end
                end
              in
              clock.(c) <- clock.(c) + cost;
              busy.(c) <- busy.(c) + cost;
              if pos.(c) >= lens.(c) && pending.(c) < 0 then begin
                decr size;
                heap.(0) <- heap.(!size)
              end;
              sift_down 0
            end
            else begin
              let e =
                match streams.(c) with
                | Dense a -> a.(pos.(c))
                | Gen cur -> cur.pull ()
              in
              pos.(c) <- pos.(c) + 1;
              incr total_accesses;
              (* Decoded in place: [decode_access] would allocate its
                 pair on every access. *)
              let addr = access_addr e and write = access_write e in
              if observed then
                probe.Probe.on_access ~core:c ~addr ~line:(addr / line_size)
                  ~write;
              let cost =
                if sampling then begin
                  if Hierarchy.line_of h addr land sample_mask = 0 then begin
                    incr sampled_count;
                    let lat = Hierarchy.access h ~core:c ~addr ~write in
                    lat_sum.(c) <- lat_sum.(c) + lat;
                    lat_cnt.(c) <- lat_cnt.(c) + 1;
                    config.issue_cost + lat
                  end
                  else begin
                    incr skipped_count;
                    let est =
                      if lat_cnt.(c) = 0 then miss_lat.(c)
                      else lat_sum.(c) / lat_cnt.(c)
                    in
                    config.issue_cost + est
                  end
                end
                else begin
                  let lat = Hierarchy.access h ~core:c ~addr ~write in
                  config.issue_cost + lat
                end
              in
              clock.(c) <- clock.(c) + cost;
              busy.(c) <- busy.(c) + cost;
              if observed then probe.Probe.on_retire ~core:c ~cycles:clock.(c);
              if pos.(c) >= lens.(c) then begin
                decr size;
                heap.(0) <- heap.(!size)
              end;
              (* The root's key only grew (or was replaced): restore
                 the heap by sifting down. *)
              sift_down 0
            end
          done;
          if (not !capped) && memo_active then begin
            match (entry_key, memo) with
            | Some (k1, k2), Some m ->
                let hits1, misses1 = Hierarchy.instance_counts h in
                Memo.store m ~key:k1
                  {
                    Memo.clock_delta =
                      Array.init n (fun c -> clock.(c) - base_clock.(c));
                    busy_delta =
                      Array.init n (fun c -> busy.(c) - base_busy.(c));
                    exit_lines = Hierarchy.snapshot h;
                    hits_delta =
                      Array.init (Array.length hits1) (fun i ->
                          hits1.(i) - hits0.(i));
                    misses_delta =
                      Array.init (Array.length misses1) (fun i ->
                          misses1.(i) - misses0.(i));
                    mem_delta = Hierarchy.mem_accesses h - mem0;
                    accesses = !total_accesses - acc0;
                    check = k2;
                  }
            | _ -> ()
          end
        end;
        if !capped then ()
        else begin
          if observed then
            probe.Probe.on_phase_end ~phase:pi
              ~cycles:(Array.fold_left max 0 clock);
          (* Barrier after every phase but the last. *)
          if pi < nphases - 1 then begin
            let tmax = Array.fold_left max 0 clock in
            if observed then
              probe.Probe.on_barrier_enter ~phase:pi ~cycles:tmax;
            for c = 0 to n - 1 do
              clock.(c) <- tmax + config.barrier_cost
            done;
            if observed then
              probe.Probe.on_barrier_exit ~phase:pi
                ~cycles:(tmax + config.barrier_cost)
          end
        end
      end)
    phases;
  let stats = finish h clock busy !total_accesses nphases in
  if tel then begin
    tel_record tel_heap ~t_start ~accesses:!total_accesses stats;
    if sampling then
      tel_record_sampled ~factor ~sampled:!sampled_count
        ~skipped:!skipped_count
  end;
  stats

let run ?config ?max_cycles h phases =
  run_streams ?config ?max_cycles h (List.map of_phase phases)

(* The seed implementation: an O(num_cores) linear scan for the
   minimum-clock core before every access.  Kept as the reference path
   for the differential tests and the heap-vs-scan micro-benchmark;
   not used by any driver. *)
let run_reference_streams ?(config = default_config) h
    (phases : stream_phase list) =
  if Hierarchy.sample_factor h > 1 then
    invalid_arg "Engine.run_reference_streams: sampled hierarchy unsupported";
  let tel = Tel.Metrics.enabled () in
  let t_start = if tel then Tel.Profile.now () else 0. in
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
      let pos = Array.make n 0 in
      let lens = Array.map stream_length streams in
      Array.iter (function Gen c -> c.reset () | Dense _ -> ()) streams;
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
        let e =
          match streams.(c) with
          | Dense a -> a.(pos.(c))
          | Gen cur -> cur.pull ()
        in
        pos.(c) <- pos.(c) + 1;
        let addr, write = decode_access e in
        if observed then
          probe.Probe.on_access ~core:c ~addr ~line:(addr / line_size) ~write;
        let lat = Hierarchy.access h ~core:c ~addr ~write in
        let cost = config.issue_cost + lat in
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
          clock.(c) <- tmax + config.barrier_cost
        done;
        if observed then
          probe.Probe.on_barrier_exit ~phase:pi
            ~cycles:(tmax + config.barrier_cost)
      end)
    phases;
  let stats = finish h clock busy !total_accesses nphases in
  if tel then tel_record tel_scan ~t_start ~accesses:!total_accesses stats;
  stats

let run_reference ?config h phases =
  run_reference_streams ?config h (List.map of_phase phases)

let run_serial ?config h stream =
  let topo = Hierarchy.topology h in
  let n = topo.Ctam_arch.Topology.num_cores in
  let phase = Array.make n [||] in
  phase.(0) <- stream;
  run ?config h [ phase ]
