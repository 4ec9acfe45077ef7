(* Probe/event-sink tests.

   The central claim of the observability layer is that probes only
   observe: summed probe events must exactly reproduce the Stats.t of
   the same run, and attaching (or not attaching) a sink must not
   change simulated time.  We check both against the paper's Figure 5
   example program, for the parallel engine and the serial one. *)

open Ctam_cachesim
module Mapping = Ctam_core.Mapping

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig5 =
  lazy
    (let ic = open_in "../examples/programs/fig5.ctam" in
     let n = in_channel_length ic in
     let text = really_input_string ic n in
     close_in ic;
     Ctam_frontend.Lower.lower_program (Ctam_frontend.Parser.parse text))

let machine () = Ctam_arch.Machines.dunnington ~scale:16 ()

let compiled () =
  Mapping.compile Mapping.Topology_aware ~machine:(machine ())
    (Lazy.force fig5)

(* --- a raw recording sink (independent of Sink) --------------------- *)

type record = {
  mutable r_accesses : int;
  mutable r_mem : int;
  mutable r_hits : (int, int) Hashtbl.t;    (* level -> hits *)
  mutable r_misses : (int, int) Hashtbl.t;  (* level -> misses *)
  mutable r_barriers : int;
  mutable r_phases : int;
}

let recorder () =
  let r =
    {
      r_accesses = 0;
      r_mem = 0;
      r_hits = Hashtbl.create 7;
      r_misses = Hashtbl.create 7;
      r_barriers = 0;
      r_phases = 0;
    }
  in
  let bump tbl level =
    Hashtbl.replace tbl level (1 + Option.value ~default:0 (Hashtbl.find_opt tbl level))
  in
  let probe =
    {
      Probe.null with
      on_access = (fun ~core:_ ~addr:_ ~line:_ ~write:_ -> r.r_accesses <- r.r_accesses + 1);
      on_mem = (fun ~core:_ ~line:_ -> r.r_mem <- r.r_mem + 1);
      on_level =
        (fun ~core:_ ~level ~set:_ ~line:_ ~hit ->
          bump (if hit then r.r_hits else r.r_misses) level);
      on_barrier_enter = (fun ~phase:_ ~cycles:_ -> r.r_barriers <- r.r_barriers + 1);
      on_phase_start = (fun ~phase:_ -> r.r_phases <- r.r_phases + 1);
    }
  in
  (r, probe)

let level_of tbl level = Option.value ~default:0 (Hashtbl.find_opt tbl level)

(* Summed raw events = Stats.t, for the parallel engine. *)
let test_recorder_matches_stats_run () =
  let c = compiled () in
  let r, probe = recorder () in
  let stats = Mapping.simulate ~probe c in
  check_int "accesses" stats.Stats.total_accesses r.r_accesses;
  check_int "mem" stats.Stats.mem_accesses r.r_mem;
  check_int "barriers" stats.Stats.barriers r.r_barriers;
  check_int "phases" (List.length c.Mapping.phases) r.r_phases;
  List.iter
    (fun l ->
      check_int
        (Printf.sprintf "L%d hits" l.Stats.level)
        l.Stats.hits
        (level_of r.r_hits l.Stats.level);
      check_int
        (Printf.sprintf "L%d misses" l.Stats.level)
        l.Stats.misses
        (level_of r.r_misses l.Stats.level))
    stats.Stats.per_level

(* Same property for the serial engine (run_serial). *)
let test_recorder_matches_stats_serial () =
  let prog = Lazy.force fig5 in
  let machine = machine () in
  let nest = List.hd (Ctam_ir.Program.parallel_nests prog) in
  let _, layout =
    Ctam_blocks.Block_map.for_program ~block_size:2048 ~line:64 prog
  in
  let stream = Engine.force_stream (Ctam_core.Trace.serial layout nest) in
  let r, probe = recorder () in
  let h = Hierarchy.create ~probe machine in
  let stats = Engine.run_serial h stream in
  check_int "accesses" stats.Stats.total_accesses r.r_accesses;
  check_int "mem" stats.Stats.mem_accesses r.r_mem;
  check_int "barriers" stats.Stats.barriers r.r_barriers;
  List.iter
    (fun l ->
      check_int
        (Printf.sprintf "L%d hits" l.Stats.level)
        l.Stats.hits
        (level_of r.r_hits l.Stats.level);
      check_int
        (Printf.sprintf "L%d misses" l.Stats.level)
        l.Stats.misses
        (level_of r.r_misses l.Stats.level))
    stats.Stats.per_level

(* The sink's counter matrices sum to the same aggregates. *)
let test_counters_match_stats () =
  let c = compiled () in
  let segments, _legend = Mapping.segments c in
  let sink = Sink.create ~segments c.Mapping.machine in
  let stats = Mapping.simulate ~probe:(Sink.probe sink) c in
  let cores = c.Mapping.machine.Ctam_arch.Topology.num_cores in
  let sum f =
    List.fold_left (fun a core -> a + f ~core) 0 (List.init cores Fun.id)
  in
  check_int "per-core accesses sum" stats.Stats.total_accesses
    (sum (fun ~core -> Sink.accesses sink ~core));
  check_int "per-core mem sum" stats.Stats.mem_accesses
    (sum (fun ~core -> Sink.mem sink ~core));
  check_int "barriers" stats.Stats.barriers (Sink.barriers sink);
  check_bool "levels" true
    (Sink.levels sink
    = List.map (fun l -> l.Stats.level) stats.Stats.per_level);
  List.iter
    (fun (l : Stats.level_stats) ->
      let level = l.Stats.level in
      check_int (Printf.sprintf "L%d hits" level) l.Stats.hits
        (sum (fun ~core -> Sink.hits sink ~core ~level));
      check_int (Printf.sprintf "L%d misses" level) l.Stats.misses
        (sum (fun ~core -> Sink.misses sink ~core ~level)))
    stats.Stats.per_level

(* Group attribution: every access and miss is charged to exactly one
   group, so group totals sum back to the aggregates. *)
let test_group_attribution_sums () =
  let c = compiled () in
  let segments, legend = Mapping.segments c in
  let sink = Sink.create ~segments c.Mapping.machine in
  let stats = Mapping.simulate ~probe:(Sink.probe sink) c in
  let groups = Sink.group_stats sink in
  check_bool "some groups" true (groups <> []);
  let sum f = List.fold_left (fun a (_, g) -> a + f g) 0 groups in
  check_int "group accesses sum" stats.Stats.total_accesses
    (sum (fun g -> g.Sink.g_accesses));
  check_int "group mem sum" stats.Stats.mem_accesses
    (sum (fun g -> g.Sink.g_mem));
  List.iteri
    (fun i level ->
      check_int
        (Printf.sprintf "group L%d misses sum" level)
        (Stats.misses_at stats level)
        (sum (fun g -> g.Sink.g_misses.(i))))
    (Sink.levels sink);
  (* every segment id used by a group appears in the legend *)
  List.iter
    (fun (id, _) ->
      check_bool
        (Printf.sprintf "segment %d in legend" id)
        true (List.mem_assoc id legend))
    groups

(* Reuse split partitions all accesses. *)
let test_reuse_split_partitions () =
  let c = compiled () in
  let sink = Sink.create c.Mapping.machine in
  let stats = Mapping.simulate ~probe:(Sink.probe sink) c in
  let count (h : Reuse.histogram) =
    Array.fold_left ( + ) 0 h.Reuse.buckets
  in
  check_int "total" stats.Stats.total_accesses (Sink.total sink);
  check_int "partition" stats.Stats.total_accesses
    (Sink.cold sink
    + count (Sink.vertical sink)
    + count (Sink.horizontal sink)
    + count (Sink.cross sink));
  (* conflicts: per-level per-set miss counts sum to the level's misses *)
  List.iter
    (fun (level, sets) ->
      check_int
        (Printf.sprintf "L%d conflict sum" level)
        (Stats.misses_at stats level)
        (Array.fold_left ( + ) 0 sets))
    (Sink.conflicts sink)

(* A reuse by another core is horizontal exactly when the two cores
   share a cache ([Topology.affinity_level]), on every preset. *)
let test_reuse_split_sharing () =
  let module T = Ctam_arch.Topology in
  List.iter
    (fun (m : T.t) ->
      let sink = Sink.create m in
      let p = Sink.probe sink in
      let count (h : Reuse.histogram) =
        Array.fold_left ( + ) 0 h.Reuse.buckets
      in
      let line = ref 0 in
      for a = 0 to m.T.num_cores - 1 do
        for b = 0 to m.T.num_cores - 1 do
          if a <> b then begin
            incr line;
            let h = count (Sink.horizontal sink) in
            p.Probe.on_access ~core:a ~addr:0 ~line:!line ~write:false;
            p.Probe.on_access ~core:b ~addr:0 ~line:!line ~write:false;
            check_bool
              (Printf.sprintf "%s: cores %d, %d" m.T.name a b)
              (T.affinity_level m a b <> None)
              (count (Sink.horizontal sink) = h + 1)
          end
        done
      done)
    Ctam_arch.Machines.
      [
        harpertown ~scale:16 (); nehalem ~scale:16 (); dunnington ~scale:16 ();
        arch_i ~scale:16 (); arch_ii ~scale:16 ();
      ]

(* Building the sink is linear in cores: 256 private L1s under one L2
   once took an N x N table of 65 K words. *)
let test_reuse_split_linear () =
  let module T = Ctam_arch.Topology in
  let n = 256 in
  let cache name level size children =
    T.Cache
      ( {
          T.cache_name = name;
          level;
          size_bytes = size;
          assoc = 4;
          line = 64;
          latency = 4 * level;
          policy = Ctam_arch.Policy.Lru;
        },
        children )
  in
  let topo =
    T.make ~name:"wide" ~clock_ghz:1. ~mem_latency:100
      [
        cache "L2" 2 65536
          (List.init n (fun c ->
               cache (Printf.sprintf "L1#%d" c) 1 4096 [ T.Core c ]));
      ]
  in
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = allocated () in
  ignore (Sys.opaque_identity (Sink.create topo));
  let words = allocated () -. before in
  let bound = 64 * n in
  if words > float_of_int bound then
    Alcotest.failf "create allocated %.0f words, over the bound %d" words bound

(* Probes only observe: cycles identical with and without the sink. *)
let test_null_sink_identical () =
  let c = compiled () in
  check_bool "null is null" true (Probe.is_null Probe.null);
  let plain = Mapping.simulate c in
  let probe = Sink.probe (Sink.create c.Mapping.machine) in
  check_bool "the sink's probe is not null" false (Probe.is_null probe);
  let observed = Mapping.simulate ~probe c in
  check_int "cycles" plain.Stats.cycles observed.Stats.cycles;
  check_int "mem" plain.Stats.mem_accesses observed.Stats.mem_accesses;
  Array.iteri
    (fun i t -> check_int (Printf.sprintf "core %d cycles" i) t
        observed.Stats.core_cycles.(i))
    plain.Stats.core_cycles

(* Retire events: exactly one per access, with per-core non-decreasing
   clocks, and stats.cycles = the largest clock any event reported. *)
let test_retire_events () =
  let c = compiled () in
  let n = c.Mapping.machine.Ctam_arch.Topology.num_cores in
  let count = ref 0 in
  let last = Array.make n 0 in
  let maxc = ref 0 in
  let probe =
    {
      Probe.null with
      on_retire =
        (fun ~core ~cycles ->
          incr count;
          check_bool "retire clocks non-decreasing per core" true
            (cycles >= last.(core));
          last.(core) <- cycles;
          if cycles > !maxc then maxc := cycles);
      on_barrier_exit =
        (fun ~phase:_ ~cycles ->
          Array.fill last 0 n cycles;
          if cycles > !maxc then maxc := cycles);
    }
  in
  let stats = Mapping.simulate ~probe c in
  check_int "one retire per access" stats.Stats.total_accesses !count;
  check_int "max event clock = stats.cycles" stats.Stats.cycles !maxc

(* A windowed sink's spans, series and heatmaps are internally
   consistent and reproduce the run's aggregates. *)
let timeline_run window =
  let c = compiled () in
  let segments, _legend = Mapping.segments c in
  let tl = Sink.create ~window ~segments c.Mapping.machine in
  let stats = Mapping.simulate ~probe:(Sink.probe tl) c in
  (c, tl, stats)

let test_timeline_consistency () =
  let c, tl, stats = timeline_run 512 in
  let n = c.Mapping.machine.Ctam_arch.Topology.num_cores in
  check_int "max_cycles = stats.cycles" stats.Stats.cycles
    (Sink.max_cycles tl);
  check_int "barriers" stats.Stats.barriers
    (List.length (Sink.barrier_marks tl));
  check_int "phases" (List.length c.Mapping.phases)
    (List.length (Sink.phase_marks tl));
  let spans = Sink.spans tl in
  check_bool "some spans" true (spans <> []);
  let sum f = List.fold_left (fun a sp -> a + f sp) 0 spans in
  check_int "span accesses sum" stats.Stats.total_accesses
    (sum (fun sp -> sp.Sink.sp_accesses));
  check_int "span mem sum" stats.Stats.mem_accesses
    (sum (fun sp -> sp.Sink.sp_mem));
  List.iter
    (fun sp ->
      check_bool "span is an interval" true
        (sp.Sink.sp_start <= sp.Sink.sp_end);
      check_bool "span within run" true
        (sp.Sink.sp_end <= stats.Stats.cycles))
    spans;
  let nw = Sink.num_windows tl in
  check_bool "several windows" true (nw > 1);
  let sum_series f =
    List.fold_left
      (fun a core -> a + Array.fold_left ( + ) 0 (f ~core))
      0
      (List.init n Fun.id)
  in
  check_int "access series sum" stats.Stats.total_accesses
    (sum_series (fun ~core -> Sink.accesses_series tl ~core));
  Array.iteri
    (fun core busy ->
      check_int
        (Printf.sprintf "core %d busy series sum" core)
        busy
        (Array.fold_left ( + ) 0 (Sink.busy_series tl ~core)))
    stats.Stats.core_cycles;
  List.iter
    (fun level ->
      let hits =
        sum_series (fun ~core -> Sink.hits_series tl ~core ~level)
      in
      let misses =
        sum_series (fun ~core -> Sink.misses_series tl ~core ~level)
      in
      let expect =
        List.find (fun l -> l.Stats.level = level) stats.Stats.per_level
      in
      check_int (Printf.sprintf "L%d hit series sum" level) expect.Stats.hits
        hits;
      check_int
        (Printf.sprintf "L%d miss series sum" level)
        expect.Stats.misses misses;
      (* heatmap cells partition the same misses *)
      match Sink.heatmap tl ~level with
      | None -> Alcotest.failf "missing heatmap for L%d" level
      | Some (sets, miss) ->
          check_bool "heatmap has sets" true (sets > 0);
          check_int
            (Printf.sprintf "L%d heatmap misses" level)
            expect.Stats.misses
            (Array.fold_left
               (fun a row -> a + Array.fold_left ( + ) 0 row)
               0 miss))
    (Sink.levels tl);
  let v, hz, x, cold = Sink.reuse_series tl in
  let s a = Array.fold_left ( + ) 0 a in
  check_int "reuse series partition accesses" stats.Stats.total_accesses
    (s v + s hz + s x + s cold);
  (* the ASCII renderer produces something for every level *)
  List.iter
    (fun level ->
      match Sink.render_heatmap tl ~level with
      | Some text -> check_bool "renders" true (String.length text > 0)
      | None -> Alcotest.failf "no rendering for L%d" level)
    (Sink.levels tl)

(* Attaching the timeline never changes simulated time. *)
let test_timeline_observe_only () =
  let c = compiled () in
  let plain = Mapping.simulate c in
  let segments, _ = Mapping.segments c in
  let tl = Sink.create ~window:512 ~segments c.Mapping.machine in
  let observed = Mapping.simulate ~probe:(Sink.probe tl) c in
  check_int "cycles" plain.Stats.cycles observed.Stats.cycles;
  check_int "mem" plain.Stats.mem_accesses observed.Stats.mem_accesses;
  Array.iteri
    (fun i t ->
      check_int (Printf.sprintf "core %d cycles" i) t
        observed.Stats.core_cycles.(i))
    plain.Stats.core_cycles

(* Two independent replays produce structurally identical timelines. *)
let test_timeline_deterministic () =
  let _, tl1, s1 = timeline_run 1024 in
  let _, tl2, s2 = timeline_run 1024 in
  check_bool "stats equal" true (s1 = s2);
  check_bool "spans equal" true (Sink.spans tl1 = Sink.spans tl2);
  check_bool "barriers equal" true
    (Sink.barrier_marks tl1 = Sink.barrier_marks tl2);
  check_bool "invalidations equal" true
    (Sink.invalidation_log tl1 = Sink.invalidation_log tl2);
  check_int "windows equal" (Sink.num_windows tl1)
    (Sink.num_windows tl2);
  let n = Sink.num_cores tl1 in
  for core = 0 to n - 1 do
    check_bool "access series equal" true
      (Sink.accesses_series tl1 ~core = Sink.accesses_series tl2 ~core);
    check_bool "busy series equal" true
      (Sink.busy_series tl1 ~core = Sink.busy_series tl2 ~core)
  done;
  check_bool "reuse series equal" true
    (Sink.reuse_series tl1 = Sink.reuse_series tl2);
  List.iter
    (fun level ->
      check_bool "heatmaps equal" true
        (Sink.heatmap tl1 ~level = Sink.heatmap tl2 ~level))
    (Sink.levels tl1)

(* Online reuse recorder agrees with the offline one, and names the
   core of each line's previous access; the long input outgrows the
   recorder's initial 1,024 access times several times. *)
let test_online_reuse_matches_offline () =
  let long = Array.init 5000 (fun i -> (i * 7919) mod 613 / (1 + (i mod 3))) in
  List.iter
    (fun lines ->
      let offline = Reuse.of_lines lines in
      let online = Reuse.Online.create () in
      let hist = Array.make (Array.length offline.Reuse.buckets) 0 in
      let cold = ref 0 in
      let last = Hashtbl.create 16 in
      Array.iteri
        (fun i line ->
          let core = i mod 5 in
          let d = Reuse.Online.touch online ~core line in
          if d < 0 then incr cold
          else hist.(Reuse.bucket_of d) <- hist.(Reuse.bucket_of d) + 1;
          check_int "previous core"
            (Option.value ~default:(-1) (Hashtbl.find_opt last line))
            (Reuse.Online.previous_core online);
          Hashtbl.replace last line core)
        lines;
      check_int "touched" (Array.length lines) (Reuse.Online.touched online);
      check_int "cold" offline.Reuse.cold !cold;
      Array.iteri
        (fun i c -> check_int (Printf.sprintf "bucket %d" i) c hist.(i))
        offline.Reuse.buckets)
    [ [| 1; 2; 3; 1; 2; 3; 7; 1; 7; 7 |]; long ]

let () =
  Alcotest.run "probe"
    [
      ( "events",
        [
          Alcotest.test_case "recorder = stats (Engine.run)" `Quick
            test_recorder_matches_stats_run;
          Alcotest.test_case "recorder = stats (run_serial)" `Quick
            test_recorder_matches_stats_serial;
          Alcotest.test_case "Counters sink = stats" `Quick
            test_counters_match_stats;
          Alcotest.test_case "group attribution sums" `Quick
            test_group_attribution_sums;
          Alcotest.test_case "reuse split partitions accesses" `Quick
            test_reuse_split_partitions;
          Alcotest.test_case "reuse split sharing" `Quick
            test_reuse_split_sharing;
          Alcotest.test_case "reuse split is linear" `Quick
            test_reuse_split_linear;
          Alcotest.test_case "retire events" `Quick test_retire_events;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "consistent with stats" `Quick
            test_timeline_consistency;
          Alcotest.test_case "replay deterministic" `Quick
            test_timeline_deterministic;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "null sink leaves cycles identical" `Quick
            test_null_sink_identical;
          Alcotest.test_case "timeline sink leaves cycles identical" `Quick
            test_timeline_observe_only;
        ] );
      ( "api",
        [
          Alcotest.test_case "online reuse = offline" `Quick
            test_online_reuse_matches_offline;
        ] );
    ]
