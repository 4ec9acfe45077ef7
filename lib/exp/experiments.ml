open Ctam_arch
open Ctam_ir
open Ctam_cachesim
open Ctam_core
open Ctam_workloads

(* The simulator runs the paper's machines at 1/16 capacity with
   proportionally sized working sets (see DESIGN.md): the data-size to
   cache-size ratios, which drive all the effects, are preserved.
   Quick mode halves the linear workload size (data / 4) and scales the
   machine by a further 4x, keeping the same ratios at a quarter of the
   simulation cost. *)
let machine_scale ~quick ~scale =
  (* [scale] (bench --scale / scale-sweep) overrides the quick/full
     capacity divisor wholesale. *)
  match scale with Some s -> s | None -> if quick then 64 else 16

let dunnington ~quick ~scale =
  Machines.dunnington ~scale:(machine_scale ~quick ~scale) ()

let commercial ~quick ~scale =
  Machines.commercial ~scale:(machine_scale ~quick ~scale) ()

(* Quick mode also trims the suite to six kernels spanning the access
   classes (stencil, transpose, shared vector, strided dependence,
   dependence relaxation, scanline). *)
let apps ~quick =
  if quick then
    [ Suite.galgel; Suite.equake; Suite.cg; Suite.sp; Suite.facesim;
      Suite.povray ]
  else Suite.all

let program_of ~quick k =
  if quick then Kernel.program ~size:(max 32 (k.Kernel.default_size / 2)) k
  else Kernel.program k

let cycles ?params ?map_topo scheme ~machine prog =
  (Mapping.run ?params ?map_topo scheme ~machine prog).Stats.cycles

(* ------------------------------------------------------------------ *)

let table1 () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Report.section "Table 1: machine parameters");
  List.iter
    (fun topo ->
      Buffer.add_string buf (Fmt.str "%a@." Topology.pp topo))
    (Machines.commercial ());
  Buffer.add_string buf
    (Fmt.str "(experiments use the same topologies at 1/%d capacity)@."
       (machine_scale ~quick:false ~scale:None));
  Buffer.contents buf

let table2 ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let stats = Mapping.simulate_serial ~machine prog in
        [
          k.Kernel.name;
          k.Kernel.origin;
          (match k.Kernel.kind with
          | Kernel.Parallel_bench -> "parallel"
          | Kernel.Sequential_app -> "sequential");
          Printf.sprintf "%.1f KB" (float_of_int (Program.data_bytes prog) /. 1024.);
          string_of_int stats.Stats.cycles;
        ])
      (apps ~quick)
  in
  Report.section "Table 2: applications (single-core Dunnington cycles)"
  ^ Report.table
      ~header:[ "application"; "suite"; "kind"; "data"; "1-core cycles" ]
      rows

let fig2 ?(quick = false) ?scale () =
  let prog = program_of ~quick Suite.galgel in
  let machines = commercial ~quick ~scale in
  let versions =
    List.map
      (fun m -> (m, Mapping.compile Mapping.Combined ~machine:m prog))
      machines
  in
  let rows =
    List.map
      (fun target ->
        let cycles_for (src, compiled) =
          let c =
            if src.Topology.name = target.Topology.name then compiled
            else Mapping.port compiled ~machine:target
          in
          float_of_int (Mapping.simulate c).Stats.cycles
        in
        let raw = List.map cycles_for versions in
        let best = List.fold_left min infinity raw in
        target.Topology.name
        :: List.map (fun v -> Report.f2 (v /. best)) raw)
      machines
  in
  Report.section
    "Figure 2: galgel versions (columns) executed on machines (rows), \
     normalized to the best version per machine"
  ^ Report.table
      ~header:
        ("executed on"
        :: List.map (fun m -> m.Topology.name ^ " version") machines)
      rows

let fig13 ?(quick = false) ?scale () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Report.section
       "Figure 13: normalized execution cycles (Base / Base+ / TopologyAware)");
  let schemes = [ Mapping.Base; Mapping.Base_plus; Mapping.Topology_aware ] in
  let miss_reductions = ref [] in
  List.iter
    (fun machine ->
      let rows = ref [] in
      let norm_sums = List.map (fun s -> (s, ref 0.)) schemes in
      List.iter
        (fun k ->
          let prog = program_of ~quick k in
          let stats = List.map (fun s -> Mapping.run s ~machine prog) schemes in
          let base = float_of_int (List.hd stats).Stats.cycles in
          let normalized =
            List.map (fun st -> float_of_int st.Stats.cycles /. base) stats
          in
          List.iter2 (fun (_, acc) v -> acc := !acc +. log v) norm_sums
            normalized;
          (if machine.Topology.name = "Dunnington" then
             let b = List.hd stats and t = List.nth stats 2 in
             miss_reductions :=
               ( Stats.misses_at b 1,
                 Stats.misses_at t 1,
                 Stats.misses_at b 2,
                 Stats.misses_at t 2,
                 Stats.misses_at b 3,
                 Stats.misses_at t 3 )
               :: !miss_reductions);
          rows := (k.Kernel.name :: List.map Report.f2 normalized) :: !rows)
        (apps ~quick);
      let geo =
        List.map
          (fun (_, acc) ->
            Report.f2 (exp (!acc /. float_of_int (List.length (apps ~quick)))))
          norm_sums
      in
      Buffer.add_string buf
        (Report.section machine.Topology.name
        ^ Report.table
            ~header:[ "application"; "Base"; "Base+"; "TopologyAware" ]
            (List.rev !rows @ [ "geomean" :: geo ])))
    (commercial ~quick ~scale);
  (* Miss reductions on Dunnington (text of §4.2). *)
  let sum f = List.fold_left (fun a x -> a + f x) 0 !miss_reductions in
  let red fb ft =
    let b = sum fb and t = sum ft in
    if b = 0 then 0. else 100. *. float_of_int (b - t) /. float_of_int b
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\nDunnington miss reductions of TopologyAware over Base: L1 %.0f%%, \
        L2 %.0f%%, L3 %.0f%%\n"
       (red (fun (b, _, _, _, _, _) -> b) (fun (_, t, _, _, _, _) -> t))
       (red (fun (_, _, b, _, _, _) -> b) (fun (_, _, _, t, _, _) -> t))
       (red (fun (_, _, _, _, b, _) -> b) (fun (_, _, _, _, _, t) -> t)));
  Buffer.contents buf

let fig14 ?(quick = false) ?scale () =
  let machines = commercial ~quick ~scale in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Report.section
       "Figure 14: cross-machine versions, normalized to the native version");
  List.iter
    (fun target ->
      let others =
        List.filter
          (fun m -> m.Topology.name <> target.Topology.name)
          machines
      in
      let rows =
        List.map
          (fun k ->
            let prog = program_of ~quick k in
            let native =
              float_of_int
                (cycles Mapping.Topology_aware ~machine:target prog)
            in
            k.Kernel.name
            :: List.map
                 (fun src ->
                   let compiled =
                     Mapping.compile Mapping.Topology_aware ~machine:src prog
                   in
                   let ported = Mapping.port compiled ~machine:target in
                   Report.f2
                     (float_of_int (Mapping.simulate ported).Stats.cycles
                     /. native))
                 others)
          (apps ~quick)
      in
      Buffer.add_string buf
        (Report.section ("Execution on " ^ target.Topology.name)
        ^ Report.table
            ~header:
              ("application"
              :: List.map (fun m -> m.Topology.name ^ " version") others)
            rows))
    machines;
  Buffer.contents buf

let fig15 ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let schemes =
    [ Mapping.Base; Mapping.Topology_aware; Mapping.Local; Mapping.Combined ]
  in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let cycles = List.map (fun s -> cycles s ~machine prog) schemes in
        let base = float_of_int (List.hd cycles) in
        k.Kernel.name
        :: List.map (fun c -> Report.f2 (float_of_int c /. base))
             (List.tl cycles))
      (apps ~quick)
  in
  Report.section
    "Figure 15: local scheduling in isolation and combined (Dunnington, \
     normalized to Base)"
  ^ Report.table
      ~header:[ "application"; "TopologyAware"; "Local"; "Combined" ]
      rows

let fig16 ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let sizes = [ 256; 512; 1024; 2048; 4096; 8192 ] in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let base = float_of_int (cycles Mapping.Base ~machine prog) in
        k.Kernel.name
        :: List.map
             (fun bs ->
               let params = { Mapping.default_params with block_size = bs } in
               Report.f2
                 (float_of_int
                    (cycles ~params Mapping.Topology_aware ~machine prog)
                 /. base))
             sizes)
      (apps ~quick)
  in
  Report.section
    "Figure 16: data-block-size sensitivity (TopologyAware on Dunnington, \
     normalized to Base)"
  ^ Report.table
      ~header:("application" :: List.map (fun b -> Printf.sprintf "%dB" b) sizes)
      rows

let fig17 ?(quick = false) ?scale () =
  let counts = [ 12; 18; 24 ] in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        k.Kernel.name
        :: List.concat_map
             (fun n ->
               let machine =
                 Machines.dunnington_scaled_cores
                   ~scale:(machine_scale ~quick ~scale) ~num_cores:n ()
               in
               let base = float_of_int (cycles Mapping.Base ~machine prog) in
               [
                 Report.f2
                   (float_of_int (cycles Mapping.Base_plus ~machine prog)
                   /. base);
                 Report.f2
                   (float_of_int
                      (cycles Mapping.Topology_aware ~machine prog)
                   /. base);
               ])
             counts)
      (apps ~quick)
  in
  Report.section
    "Figure 17: core-count scaling (normalized to Base at each count)"
  ^ Report.table
      ~header:
        ("application"
        :: List.concat_map
             (fun n ->
               [ Printf.sprintf "B+/%dc" n; Printf.sprintf "TA/%dc" n ])
             counts)
      rows

let fig18 ?(quick = false) ?scale () =
  let machines =
    [
      ("Default", dunnington ~quick ~scale);
      ("Arch-I", Machines.arch_i ~scale:(machine_scale ~quick ~scale) ());
      ("Arch-II", Machines.arch_ii ~scale:(machine_scale ~quick ~scale) ());
    ]
  in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        k.Kernel.name
        :: List.map
             (fun (_, machine) ->
               let base = float_of_int (cycles Mapping.Base ~machine prog) in
               Report.f2
                 (float_of_int (cycles Mapping.Topology_aware ~machine prog)
                 /. base))
             machines)
      (apps ~quick)
  in
  Report.section
    "Figure 18: deeper on-chip hierarchies (TopologyAware normalized to \
     Base per machine)"
  ^ Report.table
      ~header:("application" :: List.map fst machines)
      rows

let fig19 ?(quick = false) ?scale () =
  let machine = Machines.halve_caches (dunnington ~quick ~scale) in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let base = float_of_int (cycles Mapping.Base ~machine prog) in
        [
          k.Kernel.name;
          Report.f2
            (float_of_int (cycles Mapping.Base_plus ~machine prog) /. base);
          Report.f2
            (float_of_int (cycles Mapping.Topology_aware ~machine prog)
            /. base);
        ])
      (apps ~quick)
  in
  Report.section
    "Figure 19: halved cache capacities (Dunnington/2, normalized to Base)"
  ^ Report.table ~header:[ "application"; "Base+"; "TopologyAware" ] rows

let fig20 ?(quick = true) ?scale () =
  (* The optimal search simulates many candidate mappings: always use
     the quick configuration here; like the paper's ILP (23-hour runs),
     this is the most expensive experiment. *)
  ignore quick;
  let quick = true in
  let machine = Machines.arch_i ~scale:(machine_scale ~quick ~scale) () in
  let l12 = Topology.truncate_levels 2 machine in
  let l123 = Topology.truncate_levels 3 machine in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let base = float_of_int (cycles Mapping.Base ~machine prog) in
        let with_map_topo mt =
          float_of_int
            (cycles ~map_topo:mt Mapping.Topology_aware ~machine prog)
          /. base
        in
        let opt =
          (Optimal.search ~budget:60 ~machine prog).Optimal.stats.Stats.cycles
        in
        [
          k.Kernel.name;
          Report.f2 (with_map_topo l12);
          Report.f2 (with_map_topo l123);
          Report.f2 (with_map_topo machine);
          Report.f2 (float_of_int opt /. base);
        ])
      (apps ~quick)
  in
  Report.section
    "Figure 20: level-subset mappings and optimal search (Arch-I, \
     normalized to Base; reduced instances)"
  ^ Report.table
      ~header:[ "application"; "L1+L2"; "L1+L2+L3"; "L1..L4"; "Optimal" ]
      rows

let alphabeta ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let points = [ (0.0, 1.0); (0.25, 0.75); (0.5, 0.5); (0.75, 0.25); (1.0, 0.0) ] in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let base = float_of_int (cycles Mapping.Base ~machine prog) in
        k.Kernel.name
        :: List.map
             (fun (alpha, beta) ->
               let params = { Mapping.default_params with alpha; beta } in
               Report.f2
                 (float_of_int (cycles ~params Mapping.Combined ~machine prog)
                 /. base))
             points)
      (apps ~quick)
  in
  Report.section
    "alpha/beta sensitivity of the combined scheme (Dunnington, normalized \
     to Base)"
  ^ Report.table
      ~header:
        ("application"
        :: List.map (fun (a, b) -> Printf.sprintf "a=%.2f b=%.2f" a b) points)
      rows

let overhead ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let compile name scheme =
          ignore
            (Ctam_telemetry.Span.with_ name (fun () ->
                 Mapping.compile scheme ~machine prog))
        in
        let (), spans =
          Ctam_telemetry.Span.collect (fun () ->
              compile "base" Mapping.Base;
              compile "topology-aware" Mapping.Topology_aware)
        in
        let t_base = List.assoc "base" spans in
        let t_topo = List.assoc "topology-aware" spans in
        [
          k.Kernel.name;
          Printf.sprintf "%.2fs" t_base;
          Printf.sprintf "%.2fs" t_topo;
          Printf.sprintf "+%.0f%%"
            (100. *. (t_topo -. t_base) /. Float.max 1e-6 t_base);
        ])
      (apps ~quick)
  in
  Report.section
    "Compilation overhead of the topology-aware mapping (cf. paper's \
     +65..94% over parallelization alone)"
  ^ Report.table
      ~header:[ "application"; "parallelize only"; "topology-aware"; "overhead" ]
      rows

let dep_stats ?(quick = false) ?scale:_ () =
  let deps, total =
    List.fold_left
      (fun (d, t) k ->
        let p = program_of ~quick k in
        let nests = Program.parallel_nests p in
        ( d
          + List.length
              (List.filter Ctam_deps.Dep_test.nest_may_carry_deps nests),
          t + List.length nests ))
      (0, 0) (apps ~quick)
  in
  Report.section "Dependence statistics (cf. paper: ~14% of parallel loops)"
  ^ Printf.sprintf
      "%d of %d parallel loops carry loop-carried dependences (%.0f%%)\n" deps
      total
      (100. *. float_of_int deps /. float_of_int total)

let dynamic ?(quick = false) ?scale () =
  let machine = dunnington ~quick ~scale in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let base = float_of_int (cycles Mapping.Base ~machine prog) in
        [
          k.Kernel.name;
          Report.f2
            (float_of_int (cycles Mapping.Topology_aware ~machine prog)
            /. base);
          Report.f2
            (float_of_int
               (Dynamic_sched.run ~machine prog).Ctam_cachesim.Stats.cycles
            /. base);
        ])
      (apps ~quick)
  in
  Report.section
    "Dynamic scheduling comparison (paper section 5: dynamic distribution \
     did not generate good results; normalized to Base)"
  ^ Report.table ~header:[ "application"; "TopologyAware"; "Dynamic" ] rows

let depmode ?(quick = false) ?scale () =
  (* §3.5.2's two options on the dependence-carrying kernels:
     clustering dependent groups (option 1, no synchronization) vs
     distributing + synchronizing (option 2, the default).  The paper
     expects option 1 to lose parallelism when dependences are many. *)
  let machine = dunnington ~quick ~scale in
  let rows =
    List.map
      (fun k ->
        let prog = program_of ~quick k in
        let base = float_of_int (cycles Mapping.Base ~machine prog) in
        let with_mode m =
          let params = { Mapping.default_params with dependence_mode = m } in
          float_of_int (cycles ~params Mapping.Topology_aware ~machine prog)
          /. base
        in
        [
          k.Kernel.name;
          Report.f2 (with_mode Distribute.Synchronize);
          Report.f2 (with_mode Distribute.Cluster);
        ])
      [ Suite.sp; Suite.facesim ]
  in
  Report.section
    "Dependence handling options of section 3.5.2 (normalized to Base)"
  ^ Report.table
      ~header:[ "application"; "synchronize (opt 2)"; "cluster (opt 1)" ]
      rows

let registry =
  [
    ("table1", fun ?(quick = false) ?scale () -> ignore quick; ignore scale; table1 ());
    ("table2", fun ?quick ?scale () -> table2 ?quick ?scale ());
    ("fig2", fun ?quick ?scale () -> fig2 ?quick ?scale ());
    ("fig13", fun ?quick ?scale () -> fig13 ?quick ?scale ());
    ("fig14", fun ?quick ?scale () -> fig14 ?quick ?scale ());
    ("fig15", fun ?quick ?scale () -> fig15 ?quick ?scale ());
    ("fig16", fun ?quick ?scale () -> fig16 ?quick ?scale ());
    ("fig17", fun ?quick ?scale () -> fig17 ?quick ?scale ());
    ("fig18", fun ?quick ?scale () -> fig18 ?quick ?scale ());
    ("fig19", fun ?quick ?scale () -> fig19 ?quick ?scale ());
    ("fig20", fun ?quick ?scale () -> fig20 ?quick ?scale ());
    ("alphabeta", fun ?quick ?scale () -> alphabeta ?quick ?scale ());
    ("overhead", fun ?quick ?scale () -> overhead ?quick ?scale ());
    ("depstats", fun ?quick ?scale () -> dep_stats ?quick ?scale ());
    ("dynamic", fun ?quick ?scale () -> dynamic ?quick ?scale ());
    ("depmode", fun ?quick ?scale () -> depmode ?quick ?scale ());
  ]

let names = List.map fst registry

let by_name name =
  match List.assoc_opt (String.lowercase_ascii name) registry with
  | Some f -> f
  | None -> raise Not_found

let all ?(quick = false) ?scale ?jobs () =
  (* Experiments are independent (each builds its own machines and
     hierarchies); run them across domains and emit in registry
     order.  Only the wall-clock columns of [overhead] are
     load-sensitive; every simulated number is deterministic. *)
  Ctam_util.Parallel.map ?domains:jobs
    (fun (name, f) -> (name, f ?quick:(Some quick) ?scale ()))
    registry
