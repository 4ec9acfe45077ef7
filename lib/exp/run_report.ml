open Ctam_arch
open Ctam_ir
open Ctam_cachesim
open Ctam_core
module J = Ctam_util.Json
module Metrics = Ctam_telemetry.Metrics
module Profile = Ctam_telemetry.Profile
module Span = Ctam_telemetry.Span

type profile = {
  compiled : Mapping.compiled;
  stats : Stats.t;
  sink : Sink.t;
  legend : (int * (string * int)) list;
  timings : (string * float) list;
  spans : (string * float) list;
  verify : Ctam_verify.Verify.report option;
  report : J.t;
}

let topology_json (topo : Topology.t) =
  J.Obj
    [
      ("name", J.String topo.Topology.name);
      ("clock_ghz", J.Float topo.Topology.clock_ghz);
      ("mem_latency", J.Int topo.Topology.mem_latency);
      ("num_cores", J.Int topo.Topology.num_cores);
      ( "caches",
        J.List
          (List.map
             (fun (p : Topology.cache_params) ->
               J.Obj
                 [
                   ("name", J.String p.cache_name);
                   ("level", J.Int p.level);
                   ("size_bytes", J.Int p.size_bytes);
                   ("assoc", J.Int p.assoc);
                   ("line", J.Int p.line);
                   ("latency", J.Int p.latency);
                 ])
             (Topology.caches topo)) );
    ]

let histogram_json (h : Reuse.histogram) =
  let buckets = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo = if i = 0 then 0 else 1 lsl (i - 1) in
        let hi = if i = 0 then 1 else 1 lsl i in
        buckets :=
          J.Obj [ ("lo", J.Int lo); ("hi", J.Int hi); ("count", J.Int c) ]
          :: !buckets)
    h.Reuse.buckets;
  J.Obj
    [
      ("total", J.Int h.Reuse.total);
      ("cold", J.Int h.Reuse.cold);
      ("buckets", J.List (List.rev !buckets));
    ]

let params_json (p : Mapping.params) =
  J.Obj
    [
      ("block_size", J.Int p.block_size);
      ("auto_block", J.Bool p.auto_block);
      ("balance_threshold", J.Float p.balance_threshold);
      ("alpha", J.Float p.alpha);
      ("beta", J.Float p.beta);
      ("max_groups", J.Int p.max_groups);
      ( "tile_edge",
        match p.tile_edge with None -> J.Null | Some e -> J.Int e );
      ( "dependence_mode",
        J.String
          (match p.dependence_mode with
          | Distribute.Synchronize -> "synchronize"
          | Distribute.Cluster -> "cluster") );
    ]

let nest_json (i : Mapping.nest_info) =
  J.Obj
    [
      ("name", J.String i.nest_name);
      ("groups", J.Int i.num_groups);
      ("rounds", J.Int i.num_rounds);
      ("dep_edges", J.Int i.dep_edges);
      ("block_size", J.Int i.used_block_size);
    ]

let per_core_json sink =
  J.List
    (List.init (Sink.num_cores sink) (fun core ->
         J.Obj
           [
             ("core", J.Int core);
             ("accesses", J.Int (Sink.accesses sink ~core));
             ("writes", J.Int (Sink.writes sink ~core));
             ("mem", J.Int (Sink.mem sink ~core));
             ( "levels",
               J.List
                 (List.map
                    (fun level ->
                      let hits = Sink.hits sink ~core ~level in
                      let misses = Sink.misses sink ~core ~level in
                      let total = hits + misses in
                      J.Obj
                        [
                          ("level", J.Int level);
                          ("hits", J.Int hits);
                          ("misses", J.Int misses);
                          ( "miss_rate",
                            J.Float
                              (if total = 0 then 0.
                               else float_of_int misses /. float_of_int total)
                          );
                          ( "evictions",
                            J.Int (Sink.evictions sink ~core ~level) );
                        ])
                    (Sink.levels sink)) );
           ]))

let groups_json sink legend =
  let levels = Sink.levels sink in
  (* Segment ids are unique; a table keeps the lookup constant-time
     (a tiled Base+ plan has tens of thousands of segments). *)
  let names = Hashtbl.of_seq (List.to_seq legend) in
  J.List
    (List.map
       (fun (seg, (g : Sink.group_stat)) ->
         let nest, group =
           match Hashtbl.find_opt names seg with
           | Some ng -> ng
           | None -> ("?", seg)
         in
         J.Obj
           [
             ("segment", J.Int seg);
             ("nest", J.String nest);
             ("group", J.Int group);
             ("accesses", J.Int g.g_accesses);
             ( "misses",
               J.List
                 (List.mapi
                    (fun i level ->
                      J.Obj
                        [
                          ("level", J.Int level);
                          ("misses", J.Int g.g_misses.(i));
                        ])
                    levels) );
             ("mem", J.Int g.g_mem);
           ])
       (Sink.group_stats sink))

let conflicts_json sink =
  J.List
    (List.map
       (fun (level, per_set) ->
         let sets = Array.length per_set in
         let total = Array.fold_left ( + ) 0 per_set in
         let maxm = Array.fold_left max 0 per_set in
         let hot =
           per_set
           |> Array.mapi (fun s m -> (s, m))
           |> Array.to_list
           |> List.filter (fun (_, m) -> m > 0)
           |> List.sort (fun (_, a) (_, b) -> compare b a)
           |> (fun l -> List.filteri (fun i _ -> i < 8) l)
           |> List.map (fun (s, m) ->
                  J.Obj [ ("set", J.Int s); ("misses", J.Int m) ])
         in
         J.Obj
           [
             ("level", J.Int level);
             ("sets", J.Int sets);
             ("misses", J.Int total);
             ("max_set_misses", J.Int maxm);
             ( "mean_set_misses",
               J.Float
                 (if sets = 0 then 0. else float_of_int total /. float_of_int sets)
             );
             ("hot_sets", J.List hot);
           ])
       (Sink.conflicts sink))

let profile ?(params = Mapping.default_params) ?timeline_window
    ?(frontend_timings = []) ?(check = false) ?(stream = false)
    ?(sample_sets = 1) scheme ~machine program =
  (* GC image before any pipeline work, so the report's [telemetry]
     member charges compile + probe setup + simulation to this run. *)
  let gc0 = Gc.quick_stat () in
  let t_all0 = Unix.gettimeofday () in
  let compiled, compile_span =
    Span.collect (fun () ->
        Span.with_ "compile" (fun () ->
            Mapping.compile ~params ~stream scheme ~machine program))
  in
  let verify =
    if check then Some (Ctam_verify.Verify.check compiled) else None
  in
  let segments, legend = Mapping.segments compiled in
  let sink = Sink.create ?window:timeline_window ~segments machine in
  let gc_sim0 = Gc.quick_stat () in
  let stats, simulate_span =
    Span.collect (fun () ->
        Span.with_ "simulate" (fun () ->
            Mapping.simulate ~probe:(Sink.probe sink)
              ?sample_sets:(if sample_sets > 1 then Some sample_sets else None)
              compiled))
  in
  let timings = frontend_timings @ compiled.Mapping.timings @ simulate_span in
  if Metrics.enabled () then begin
    let gc_sim1 = Gc.quick_stat () in
    List.iter
      (fun (k, seconds) ->
        Metrics.Histogram.(observe (series Profile.seconds [ k ])) seconds)
      (List.map (fun (k, v) -> ("frontend." ^ k, v)) frontend_timings
      @ simulate_span);
    let words c0 c1 = max 0 (int_of_float (c1 -. c0)) in
    Metrics.Counter.inc
      ~by:(words gc_sim0.Gc.minor_words gc_sim1.Gc.minor_words)
      (Metrics.Counter.series Profile.minor_words [ "simulate" ]);
    Metrics.Counter.inc
      ~by:(words gc_sim0.Gc.major_words gc_sim1.Gc.major_words)
      (Metrics.Counter.series Profile.major_words [ "simulate" ])
  end;
  let wall_seconds = Unix.gettimeofday () -. t_all0 in
  let gc1 = Gc.quick_stat () in
  let telemetry_json =
    J.Obj
      [
        ("telemetry_version", J.Int Build_info.telemetry_version);
        ("wall_seconds", J.Float wall_seconds);
        ("gc", Profile.gc_delta_json gc0 gc1);
      ]
  in
  let report =
    J.Obj
      ([
        ("ctam_report_version", J.Int Build_info.report_version);
        ("version", J.String Build_info.version);
        ("program", J.String program.Program.name);
        ("scheme", J.String (Mapping.scheme_id scheme));
        ("machine", topology_json machine);
        ("params", params_json params);
        ("nests", J.List (List.map nest_json compiled.Mapping.infos));
        ( "timings_seconds",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) timings) );
        ("stats", Stats.to_json stats);
        (* How the simulation ran.  Sampled per-level probe counters
           (per_core, groups, conflicts) describe only the simulated
           1/sample_sets of the line population; [stats] is
           extrapolated. *)
        ( "simulation",
          J.Obj
            [
              ("stream", J.Bool stream);
              ("sample_sets", J.Int sample_sets);
              (* The engine's phase memo is inert on an observed run
                 (replay cannot reproduce the event stream), so a
                 profile never attaches one; the members keep the
                 report's shape. *)
              ("memo", J.Bool false);
              ("memo_hits", J.Null);
              ("memo_misses", J.Null);
            ] );
        ("per_core", per_core_json sink);
        ("groups", groups_json sink legend);
        ( "reuse",
          J.Obj
            [
              ("total", J.Int (Sink.total sink));
              ("cold", J.Int (Sink.cold sink));
              ("vertical", histogram_json (Sink.vertical sink));
              ("horizontal", histogram_json (Sink.horizontal sink));
              ("cross_socket", histogram_json (Sink.cross sink));
            ] );
        ("conflicts", conflicts_json sink);
        ( "barriers",
          J.Obj
            [
              ("count", J.Int (Sink.barriers sink));
              ("invalidations", J.Int (Sink.invalidations sink));
            ] );
        ("telemetry", telemetry_json);
      ]
      @ (match Sink.window sink with
        | None -> []
        | Some _ -> [ ("timeline", Trace_export.series_json sink) ])
      @
      match verify with
      | None -> []
      | Some r -> [ ("verify", Ctam_verify.Verify.to_json r) ])
  in
  {
    compiled;
    stats;
    sink;
    legend;
    timings;
    spans = compile_span @ simulate_span;
    verify;
    report;
  }

let write_file path json =
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc

let bench_sweep ?jobs ~quick ~machine () =
  let program k =
    if quick then Ctam_workloads.Kernel.small_program k
    else Ctam_workloads.Kernel.program k
  in
  (* Every scheme on every workload, over [jobs] domains: each cell
     compiles and simulates with its own Hierarchy, so cells share
     nothing mutable, and the JSON below is assembled from the cells in
     order, byte-identical to a serial run (asserted by test_exp).
     [Mapping.all_schemes] starts with Base, each row's baseline. *)
  let grid =
    Experiments.grid
      ~jobs:(Option.value jobs ~default:(Ctam_util.Parallel.default_domains ()))
      (List.map
         (fun (k : Ctam_workloads.Kernel.t) ->
           { Experiments.name = k.name; machine; program = program k })
         Ctam_workloads.Suite.all)
      (List.map Experiments.scheme Mapping.all_schemes)
  in
  List.mapi
    (fun i scheme ->
      let rows =
        List.map
          (fun ((row : Experiments.row), cells) ->
            let stats = List.nth cells i in
            let vs_base =
              if (List.hd cells).Stats.cycles > 0 then
                Some (List.nth (Experiments.normalize cells) i)
              else None
            in
            ( vs_base,
              J.Obj
                ([
                   ("name", J.String row.name);
                   ("cycles", J.Int stats.Stats.cycles);
                   ("mem_accesses", J.Int stats.Stats.mem_accesses);
                   ("total_accesses", J.Int stats.Stats.total_accesses);
                   ("barriers", J.Int stats.Stats.barriers);
                 ]
                @
                match vs_base with
                | Some r -> [ ("vs_base", J.Float r) ]
                | None -> []) ))
          grid
      in
      let ratios = List.filter_map fst rows in
      J.Obj
        ([
           ("version", J.String Build_info.version);
           ("machine", J.String machine.Topology.name);
           ("scheme", J.String (Mapping.scheme_id scheme));
           ("quick", J.Bool quick);
           ("workloads", J.List (List.map snd rows));
         ]
        @
        if ratios = [] then []
        else [ ("geomean_vs_base", J.Float (Report.geomean ratios)) ]))
    Mapping.all_schemes
