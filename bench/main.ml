(* Benchmark harness.

   Usage:
     bench/main.exe                  run every paper experiment (full sizes)
     bench/main.exe --quick          quarter-cost configuration
     bench/main.exe fig13 fig15      run selected experiments
     bench/main.exe micro            run the Bechamel micro-benchmarks
     bench/main.exe scale-sweep      wall-clock of exact / streamed /
                                     set-sampled simulation across problem
                                     scales (--json for JSONL rows)
     bench/main.exe policy-sweep     replacement-policy differential sweep:
                                     synthetic reference strings x policies
                                     x machines, with gating trend
                                     invariants (--json for JSONL rows)
     bench/main.exe --json [M...]    machine-readable trajectories: one JSON
                                     object per scheme x machine (JSONL),
                                     machines default to the three
                                     commercial ones
     bench/main.exe --scale N ...    override the cache-capacity divisor of
                                     the experiments / sweep machines
                                     (default: 16 full, 64 quick for the
                                     experiments; 16 for the --json sweep
                                     and micro, whatever --quick says)
     bench/main.exe --jobs N ...     domains for the sweep / experiment
                                     drivers (default: $CTAM_JOBS or
                                     Domain.recommended_domain_count)

   One runner per table/figure of the paper regenerates the
   corresponding rows/series (see DESIGN.md's per-experiment index and
   EXPERIMENTS.md for measured-vs-paper numbers).  The JSON mode is
   what run_bench_incremental.sh snapshots, so bench trajectories diff
   cleanly across PRs; the simulated statistics are byte-identical at
   any --jobs (only the harness telemetry fields appended per row —
   wall_seconds, major_words, pool_utilization — vary run to run). *)

open Ctam_exp

(* --- Bechamel micro-benchmarks of the core algorithms --------------- *)

let micro ?(scale = 16) () =
  let open Bechamel in
  let open Toolkit in
  let machine = Ctam_arch.Machines.dunnington ~scale () in
  let prog = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.galgel in
  let nest = List.hd (Ctam_ir.Program.parallel_nests prog) in
  let params = Ctam_core.Mapping.default_params in
  let bm, layout =
    Ctam_blocks.Block_map.for_program ~block_size:2048 ~line:64 prog
  in
  let grouping = Ctam_blocks.Tags.group nest bm in
  let groups = grouping.Ctam_blocks.Tags.groups in
  let dg = Ctam_deps.Dep_graph.create (Array.length groups) in
  let assignment = Ctam_core.Distribute.run machine groups in
  let stream =
    Ctam_cachesim.Engine.force_stream (Ctam_core.Trace.serial layout nest)
  in
  let hierarchy = Ctam_cachesim.Hierarchy.create machine in
  (* Small galgel never builds a large candidate heap.  These 256 groups
     with four of 32 blocks each share every block among about 32
     groups (under the fanout cap of 64), with weights in 1..4 and first
     keys four to a lattice point, so one clustering pushes over 10^4
     mostly tied candidates. *)
  let tied_groups =
    let rng = Random.State.make [| 15 |] in
    let enc = Ctam_poly.Iterset.encoder_of_box [| 0 |] [| 255 |] in
    List.init 256 (fun id ->
        {
          Ctam_blocks.Iter_group.id;
          tag =
            Ctam_blocks.Bitset.of_list 32
              (List.init 4 (fun _ -> Random.State.int rng 32));
          iters = Ctam_poly.Iterset.of_list enc [ [| 4 * (id / 4) |] ];
        })
  in
  let tag_a = groups.(0).Ctam_blocks.Iter_group.tag in
  let tag_b = groups.(Array.length groups - 1).Ctam_blocks.Iter_group.tag in
  (* The serial stream as a phase, for the heap-vs-scan engine pair. *)
  let serial_phase =
    let p = Array.make machine.Ctam_arch.Topology.num_cores [||] in
    p.(0) <- stream;
    [ p ]
  in
  (* A replay on a few cores of a wide machine, as [simtrace --cores 4]
     deals one: 2^16 word accesses over 256 KB, three in four of them
     writes, dealt round-robin to cores 0-3 of full-capacity Dunnington,
     so each line is shared by all four cores and 8 of its 12 cores
     stay idle. *)
  let full = Ctam_arch.Machines.dunnington () in
  let full_hierarchy = Ctam_cachesim.Hierarchy.create full in
  let round_robin_phase =
    let p = Array.make full.Ctam_arch.Topology.num_cores [||] in
    for c = 0 to 3 do
      p.(c) <-
        Array.init (1 lsl 14) (fun k ->
            let i = (4 * k) + c in
            Ctam_cachesim.Engine.encode_access
              ~addr:(8 * (i land 0x7fff))
              ~write:(i land 3 <> 0))
    done;
    [ p ]
  in
  let tests =
    Test.make_grouped ~name:"ctam" ~fmt:"%s %s"
      [
        Test.make ~name:"bitset-dot (tag affinity)"
          (Staged.stage (fun () -> Ctam_blocks.Bitset.dot tag_a tag_b));
        Test.make ~name:"bitset-iter (word-skipping walk)"
          (Staged.stage (fun () ->
               let acc = ref 0 in
               Ctam_blocks.Bitset.iter (fun j -> acc := !acc + j) tag_a;
               !acc));
        Test.make ~name:"tagging (Tags.group, small galgel)"
          (Staged.stage (fun () -> Ctam_blocks.Tags.group nest bm));
        Test.make ~name:"distribute (Figure 6)"
          (Staged.stage (fun () -> Ctam_core.Distribute.run machine groups));
        Test.make ~name:"cluster_into (256 tied groups, big heap)"
          (Staged.stage (fun () ->
               Ctam_core.Distribute.cluster_into 2 tied_groups));
        Test.make ~name:"schedule (Figure 7)"
          (Staged.stage (fun () ->
               Ctam_core.Schedule.run machine assignment dg));
        Test.make ~name:"simulate (serial stream)"
          (Staged.stage (fun () ->
               Ctam_cachesim.Engine.run_serial hierarchy stream));
        Test.make ~name:"simulate (serial stream, scan engine)"
          (Staged.stage (fun () ->
               Ctam_cachesim.Engine.run_reference hierarchy serial_phase));
        Test.make ~name:"simulate (4 of 12 cores, round-robin)"
          (Staged.stage (fun () ->
               Ctam_cachesim.Engine.run full_hierarchy round_robin_phase));
        Test.make ~name:"parallel-map (8 tasks, 2 domains)"
          (Staged.stage (fun () ->
               Ctam_util.Parallel.map ~domains:2
                 (fun x -> x * x)
                 [ 1; 2; 3; 4; 5; 6; 7; 8 ]));
        Test.make ~name:"compile TopologyAware end-to-end"
          (Staged.stage (fun () ->
               Ctam_core.Mapping.compile ~params Ctam_core.Mapping.Topology_aware
                 ~machine prog));
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  print_endline "\nMicro-benchmarks (monotonic clock, ns per run)";
  print_endline "----------------------------------------------";
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some (t :: _) -> Printf.printf "%-45s %12.0f ns\n" name t
          | _ -> Printf.printf "%-45s (no estimate)\n" name)
        tbl)
    results

(* --- machine-readable sweep ------------------------------------------ *)

let json_sweep ?jobs ?(scale = 16) ~quick machines =
  let machines =
    match machines with
    | [] -> [ "harpertown"; "nehalem"; "dunnington" ]
    | ms -> ms
  in
  List.iter
    (fun name ->
      match Ctam_arch.Machines.by_name ~scale name with
      | machine ->
          (* Harness telemetry is appended here, per machine, so the
             library sweep itself stays byte-deterministic at any
             --jobs (asserted by test_exp). *)
          let gc0 = Gc.quick_stat () in
          let busy0, cap0 = Ctam_telemetry.Runtime.pool_totals () in
          let t0 = Unix.gettimeofday () in
          let objs = Run_report.bench_sweep ?jobs ~quick ~machine () in
          let wall = Unix.gettimeofday () -. t0 in
          let gc1 = Gc.quick_stat () in
          let busy1, cap1 = Ctam_telemetry.Runtime.pool_totals () in
          let module J = Ctam_util.Json in
          let harness =
            [
              ("wall_seconds", J.Float wall);
              ("major_words", J.Float (gc1.Gc.major_words -. gc0.Gc.major_words));
              ( "pool_utilization",
                if cap1 -. cap0 > 0. then
                  J.Float ((busy1 -. busy0) /. (cap1 -. cap0))
                else J.Null );
            ]
          in
          List.iter
            (fun obj ->
              let obj =
                match obj with
                | J.Obj members -> J.Obj (members @ harness)
                | other -> other
              in
              print_endline (J.to_string ~minify:true obj))
            objs
      | exception Not_found ->
          Printf.eprintf "unknown machine %s\n" name;
          exit 1)
    machines

(* --- scale sweep ----------------------------------------------------- *)

(* The scale-sweep micro of PR 7: wall-clock of one full simulation per
   kernel x scheme under three engine modes — exact dense arrays,
   generator-backed streams, and streamed + set-sampled — across
   problem scales.  A sweep scale S means "S/16 x today's default
   problem": the machine runs at capacity divisor max(1, 256/S) (so
   S=256 is the paper's full-size Dunnington) and each kernel's linear
   size grows by sqrt(S/16) (quadratic iteration spaces then scale
   their access volume by ~S/16).  Streamed stats are asserted
   bit-identical to exact; sampled stats report their relative cycle
   error.  Timings are taken serially (no domains) so the walls mean
   something. *)

let isqrt n =
  let r = int_of_float (sqrt (float_of_int n) +. 0.5) in
  if r * r > n then r - 1 else r

(* Largest power of two <= [requested] dividing every cache's set
   count — the largest legal sampling factor for the machine. *)
let sample_factor_for machine requested =
  List.fold_left
    (fun acc (c : Ctam_arch.Topology.cache_params) ->
      let sets =
        c.Ctam_arch.Topology.size_bytes
        / (c.Ctam_arch.Topology.assoc * c.Ctam_arch.Topology.line)
      in
      let rec fit f = if f <= 1 || sets mod f = 0 then max 1 f else fit (f / 2) in
      min acc (fit requested))
    requested
    (Ctam_arch.Topology.caches machine)

let scale_sweep ~quick ~json ~scales ~sample_sets () =
  let module J = Ctam_util.Json in
  let module Mapping = Ctam_core.Mapping in
  let module Stats = Ctam_cachesim.Stats in
  let open Ctam_workloads in
  let scales =
    match scales with
    | Some ss -> ss
    | None -> if quick then [ 16; 64 ] else [ 64; 256 ]
  in
  let kernels =
    if quick then [ Suite.galgel; Suite.equake; Suite.cg; Suite.sp ]
    else Suite.all
  in
  let schemes = [ Mapping.Base; Mapping.Combined ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  if not json then
    print_endline
      "Scale sweep: simulation wall-clock, exact vs streamed vs set-sampled \
       (Dunnington)";
  List.iter
    (fun s ->
      let machine = Ctam_arch.Machines.dunnington ~scale:(max 1 (256 / s)) () in
      let factor = sample_factor_for machine sample_sets in
      let mult = max 1 (isqrt (max 1 (s / 16))) in
      let rows = ref [] in
      List.iter
        (fun k ->
          let prog =
            Kernel.program ~size:(k.Kernel.default_size * mult) k
          in
          List.iter
            (fun scheme ->
              let dense_c, t_compile =
                time (fun () -> Mapping.compile scheme ~machine prog)
              in
              let stream_c, t_compile_stream =
                time (fun () ->
                    Mapping.compile ~stream:true scheme ~machine prog)
              in
              let exact, t_exact =
                time (fun () -> Mapping.simulate dense_c)
              in
              let streamed, t_stream =
                time (fun () -> Mapping.simulate stream_c)
              in
              if streamed <> exact then begin
                Printf.eprintf
                  "scale-sweep: streamed stats diverge from exact (%s %s \
                   scale %d)\n"
                  k.Kernel.name
                  (Mapping.scheme_name scheme)
                  s;
                exit 1
              end;
              let sampled, t_sample =
                time (fun () ->
                    Mapping.simulate ~sample_sets:factor stream_c)
              in
              let err =
                List.assoc "cycles"
                  (Stats.rel_errors ~exact ~approx:sampled)
              in
              let speedup = t_exact /. Float.max 1e-9 t_sample in
              if json then
                print_endline
                  (J.to_string ~minify:true
                     (J.Obj
                        [
                          ("experiment", J.String "scale_sweep");
                          ("machine", J.String machine.Ctam_arch.Topology.name);
                          ("scale", J.Int s);
                          ("kernel", J.String k.Kernel.name);
                          ("scheme", J.String (Mapping.scheme_name scheme));
                          ("accesses", J.Int exact.Stats.total_accesses);
                          ("sample_sets", J.Int factor);
                          ("cycles_exact", J.Int exact.Stats.cycles);
                          ("cycles_sampled", J.Int sampled.Stats.cycles);
                          ("rel_err_cycles", J.Float err);
                          ("compile_seconds", J.Float t_compile);
                          ( "compile_stream_seconds",
                            J.Float t_compile_stream );
                          ("sim_exact_seconds", J.Float t_exact);
                          ("sim_stream_seconds", J.Float t_stream);
                          ("sim_sampled_seconds", J.Float t_sample);
                          ("sim_speedup", J.Float speedup);
                        ]))
              else
                rows :=
                  [
                    k.Kernel.name;
                    Mapping.scheme_name scheme;
                    string_of_int exact.Stats.total_accesses;
                    Printf.sprintf "%.3f" t_compile;
                    Printf.sprintf "%.3f" t_exact;
                    Printf.sprintf "%.3f" t_stream;
                    Printf.sprintf "%.3f" t_sample;
                    Printf.sprintf "%.1fx" speedup;
                    Printf.sprintf "%.2f%%" (100. *. err);
                  ]
                  :: !rows)
            schemes)
        kernels;
      if not json then
        Printf.printf "\n## scale %d (machine /%d, size x%d, sample 1/%d)\n%s"
          s
          (max 1 (256 / s))
          mult factor
          (Report.table
             ~header:
               [
                 "kernel";
                 "scheme";
                 "accesses";
                 "compile_s";
                 "exact_s";
                 "stream_s";
                 "sampled_s";
                 "sim speedup";
                 "cycle err";
               ]
             (List.rev !rows)))
    scales

(* --- policy sweep ---------------------------------------------------- *)

(* Differential validation of the replacement policies, cachetrace
   style: fixed synthetic reference strings (sequential cyclic and
   uniform-random over 8KB / 128KB / 1MB footprints) are replayed
   against every policy x machine, single-core, at the paper's
   full-size caches (every L1 is 32KB 8-way x 64B, so 8KB fits, 128KB
   thrashes L1 and 1MB thrashes harder).  The sweep is gated: it
   EXITS NON-ZERO when a policy breaks one of the trend invariants
   below, so `dune runtest` (via test_policies "bench policy-sweep") and the
   bench archive both re-certify the policy layer on every change.

   Invariants asserted per machine:
   - LRU-as-policy is bit-identical to the seed reference engine
     (Engine.run_reference) on every workload;
   - per policy and pattern, the L1 hit rate declines monotonically as
     the footprint grows, and the memory rate never declines;
   - every policy serves >= 85% of the 8KB sequential pass from L1 (it
     fits: no victim is ever consulted);
   - on the L1-thrashing 128KB cyclic scan, where true LRU degenerates
     to zero hits, no policy does worse than LRU, and random victim
     selection does strictly better (the classic thrash-resistance of
     not having a worst case);
   - random:SEED is deterministic (same seed => identical stats). *)
let policy_sweep ~quick ~json () =
  let module J = Ctam_util.Json in
  let module Stats = Ctam_cachesim.Stats in
  let module Engine = Ctam_cachesim.Engine in
  let module Hierarchy = Ctam_cachesim.Hierarchy in
  let module Topology = Ctam_arch.Topology in
  let module Policy = Ctam_arch.Policy in
  let policies =
    [
      Policy.Lru; Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru;
      Policy.Random 42;
    ]
  in
  let machines =
    if quick then [ "dunnington" ]
    else [ "harpertown"; "nehalem"; "dunnington" ]
  in
  let line = 64 in
  let footprints = [ (8 * 1024, "8KB"); (128 * 1024, "128KB");
                     (1024 * 1024, "1MB") ] in
  let total = if quick then 1 lsl 16 else 1 lsl 18 in
  let sequential fp =
    let nlines = fp / line in
    Array.init total (fun i ->
        Engine.encode_access ~addr:(i mod nlines * line)
          ~write:(i land 3 = 3))
  in
  let random_trace fp =
    let nlines = fp / line in
    let s = ref 0x2545f4914f6cd in
    Array.init total (fun i ->
        let x = !s in
        let x = x lxor (x lsl 13) land max_int in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) land max_int in
        s := x;
        Engine.encode_access ~addr:(x mod nlines * line)
          ~write:(i land 3 = 3))
  in
  let patterns = [ ("seq", sequential); ("rand", random_trace) ] in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "policy-sweep: %s\n" msg;
        exit 1)
      fmt
  in
  let failures = ref 0 in
  List.iter
    (fun mname ->
      let base = Ctam_arch.Machines.by_name ~scale:1 mname in
      let phase_of trace =
        let p = Array.make base.Topology.num_cores [||] in
        p.(0) <- trace;
        [ p ]
      in
      (* (policy, pattern, footprint) -> stats, for the cross-policy
         assertions and the report. *)
      let results = ref [] in
      let simulate policy trace =
        let machine = Topology.with_policy_spec [ (None, policy) ] base in
        Engine.run (Hierarchy.create machine) (phase_of trace)
      in
      let l1_rate st =
        let l = Stats.level st 1 in
        float_of_int l.Stats.hits
        /. float_of_int (max 1 (l.Stats.hits + l.Stats.misses))
      in
      List.iter
        (fun policy ->
          List.iter
            (fun (pname, gen) ->
              List.iter
                (fun (fp, fpname) ->
                  let trace = gen fp in
                  let st = simulate policy trace in
                  (* Differential gate: the policy layer must not have
                     perturbed the seed LRU engine. *)
                  (if Policy.equal policy Policy.Lru then
                     let reference =
                       Engine.run_reference
                         (Hierarchy.create
                            (Topology.with_policy_spec [ (None, policy) ]
                               base))
                         (phase_of trace)
                     in
                     if st <> reference then
                       fail "LRU diverges from the reference engine (%s %s %s)"
                         mname pname fpname);
                  (if policy = Policy.Random 42 then
                     let again = simulate policy trace in
                     if st <> again then
                       fail "random:42 is not deterministic (%s %s %s)" mname
                         pname fpname);
                  results := ((policy, pname, fp), st) :: !results)
                footprints)
            patterns)
        policies;
      let find policy pname fp = List.assoc (policy, pname, fp) !results in
      let check cond fmt =
        Printf.ksprintf
          (fun msg ->
            if not cond then begin
              incr failures;
              Printf.eprintf "policy-sweep: FAIL %s: %s\n" mname msg
            end)
          fmt
      in
      List.iter
        (fun policy ->
          let ps = Policy.to_string policy in
          List.iter
            (fun (pname, _) ->
              (* L1 hit rate declines, memory rate grows, with footprint. *)
              let rec trend = function
                | (fa, na) :: ((fb, nb) :: _ as rest) ->
                    let a = find policy pname fa
                    and b = find policy pname fb in
                    check
                      (l1_rate a +. 1e-9 >= l1_rate b)
                      "%s %s L1 hit rate rose %s -> %s (%.4f -> %.4f)" ps
                      pname na nb (l1_rate a) (l1_rate b);
                    check
                      (Stats.mem_rate a <= Stats.mem_rate b +. 1e-9)
                      "%s %s memory rate fell %s -> %s (%.4f -> %.4f)" ps
                      pname na nb (Stats.mem_rate a) (Stats.mem_rate b);
                    trend rest
                | _ -> ()
              in
              trend footprints)
            patterns;
          (* The 8KB sequential pass fits every L1. *)
          let st = find policy "seq" (8 * 1024) in
          check
            (l1_rate st >= 0.85)
            "%s seq 8KB L1 hit rate %.4f < 0.85" ps (l1_rate st))
        policies;
      (* LRU's worst case: the cyclic scan just over L1.  Nothing may
         do worse, and random victims must do strictly better. *)
      let lru = find Policy.Lru "seq" (128 * 1024) in
      List.iter
        (fun policy ->
          let st = find policy "seq" (128 * 1024) in
          check
            (l1_rate st +. 1e-9 >= l1_rate lru)
            "%s L1 hit rate %.4f below lru %.4f on the 128KB cyclic scan"
            (Policy.to_string policy) (l1_rate st) (l1_rate lru))
        policies;
      let rnd = find (Policy.Random 42) "seq" (128 * 1024) in
      check
        (l1_rate rnd > l1_rate lru)
        "random:42 L1 hit rate %.4f not above lru %.4f on the 128KB cyclic \
         scan"
        (l1_rate rnd) (l1_rate lru);
      (* Report. *)
      if json then
        List.iter
          (fun ((policy, pname, fp), st) ->
            print_endline
              (J.to_string ~minify:true
                 (J.Obj
                    [
                      ("experiment", J.String "policy_sweep");
                      ("machine", J.String base.Topology.name);
                      ("policy", J.String (Policy.to_string policy));
                      ("pattern", J.String pname);
                      ("footprint_bytes", J.Int fp);
                      ("accesses", J.Int st.Stats.total_accesses);
                      ("l1_hit_rate", J.Float (l1_rate st));
                      ("mem_rate", J.Float (Stats.mem_rate st));
                      ("cycles", J.Int st.Stats.cycles);
                    ])))
          (List.rev !results)
      else begin
        let rows =
          List.rev_map
            (fun ((policy, pname, fp), st) ->
              [
                Policy.to_string policy;
                pname;
                string_of_int (fp / 1024) ^ "KB";
                Printf.sprintf "%.2f%%" (100. *. l1_rate st);
                Printf.sprintf "%.2f%%" (100. *. Stats.mem_rate st);
                string_of_int st.Stats.cycles;
              ])
            !results
        in
        Printf.printf "\n## policy sweep: %s (%d accesses per workload)\n%s"
          base.Topology.name total
          (Report.table
             ~header:
               [ "policy"; "pattern"; "footprint"; "L1 hit"; "mem"; "cycles" ]
             rows)
      end)
    machines;
  if !failures > 0 then begin
    Printf.eprintf "policy-sweep: %d invariant(s) violated\n" !failures;
    exit 1
  end;
  if not json then print_endline "policy-sweep: all invariants hold"

(* --- experiment driver ---------------------------------------------- *)

(* Extract "--FLAG N" / "--FLAG=N" (an integer option) from the
   argument list. *)
let extract_int_flag flag args =
  let prefix = flag ^ "=" in
  let plen = String.length prefix in
  let bad got =
    Printf.eprintf "%s expects a positive integer%s\n" flag got;
    exit 1
  in
  let rec go acc = function
    | [] -> (None, List.rev acc)
    | f :: n :: rest when f = flag -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | _ -> bad (", got " ^ n))
    | [ f ] when f = flag -> bad ""
    | arg :: rest when String.length arg > plen && String.sub arg 0 plen = prefix
      -> (
        let n = String.sub arg plen (String.length arg - plen) in
        match int_of_string_opt n with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | _ -> bad (", got " ^ n))
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

let extract_jobs args = extract_int_flag "--jobs" args

let () =
  Ctam_telemetry.Runtime.install ();
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs, args = extract_jobs args in
  let scale, args = extract_int_flag "--scale" args in
  let sample_sets, args = extract_int_flag "--sample-sets" args in
  let quick = List.mem "--quick" args in
  let json = List.mem "--json" args in
  let args =
    List.filter (fun a -> a <> "--quick" && a <> "--full" && a <> "--json") args
  in
  match args with
  | "policy-sweep" :: _ -> policy_sweep ~quick ~json ()
  | "scale-sweep" :: rest ->
      (* Positional integers select the sweep scales (default: 16 64
         quick, 64 256 full). *)
      let scales =
        match List.filter_map int_of_string_opt rest with
        | [] -> None
        | ss -> Some ss
      in
      scale_sweep ~quick ~json ~scales
        ~sample_sets:(Option.value sample_sets ~default:16)
        ()
  | _ when json -> json_sweep ?jobs ?scale ~quick args
  | [ "micro" ] -> micro ?scale ()
  | [] ->
      Printf.printf
        "Running all paper experiments (%s sizes; pass --quick for the \
         quarter-cost configuration, 'micro' for micro-benchmarks, \
         'scale-sweep' for the streamed/sampled-engine walls)\n"
        (if quick then "quick" else "full");
      List.iter
        (fun (name, report) ->
          Printf.printf "\n###### %s ######\n%s%!" name (Report.render report))
        (Experiments.all ~quick ?scale ?jobs ())
  | names ->
      List.iter
        (fun name ->
          match Experiments.by_name name with
          | runner ->
              Printf.printf "%s%!" (Report.render (runner ~quick ?scale ()))
          | exception Not_found ->
              Printf.eprintf
                "unknown experiment %s (known: %s, micro, scale-sweep, \
                 policy-sweep)\n"
                name
                (String.concat ", " Experiments.names);
              exit 1)
        names
