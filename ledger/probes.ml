(* Per-layer probes: direct calls into each layer's public functions on
   fixed inputs, timed from outside.  Every traced run repeats the whole
   battery, so each workload's record carries the layer numbers measured
   next to it.  Which end-to-end metric each probe should move, on which
   workload, is tabulated in the README. *)

open Workloads

type metric = string * float * string

let ms s = 1e3 *. s
let us s = 1e6 *. s
let ns s = 1e9 *. s

(* Host-normalized seconds per call.  Smoke probes time one short
   batch; full probes take the median of three. *)
let per_call size f =
  let r0 = Meter.reference () in
  let s =
    match size with
    | Full -> Meter.per_call ~reps:3 f
    | Smoke -> Meter.per_call ~reps:1 ~min_s:0.001 f
  in
  s *. Meter.nominal_reference /. ((r0 +. Meter.reference ()) /. 2.)

(* Tagging, Figure 6 distribution and Figure 7 scheduling on the first
   parallel nest of sp (reduced size; it has loop-carried dependences)
   for Dunnington/16, and the whole Combined compile of that program. *)
let mapper size : metric list =
  let machine = Machines.dunnington ~scale:16 () in
  let prog = Kernel.small_program Suite.sp in
  let params = Mapping.default_params in
  let nest = List.hd (Ctam_ir.Program.parallel_nests prog) in
  let grouping = Mapping.grouping_for ~params ~machine prog in
  let _, groups, dg = grouping nest in
  let distribute () = Ctam_core.Distribute.run ~dep_graph:dg machine groups in
  let assignment = distribute () in
  let compiled = Mapping.compile Mapping.Combined ~machine prog in
  let sum f = List.fold_left (fun a i -> a + f i) 0 compiled.Mapping.infos in
  [
    ("blocks.grouping_ms", ms (per_call size (fun () -> grouping nest)), "ms");
    ("core.distribute_ms", ms (per_call size distribute), "ms");
    ( "core.schedule_ms",
      ms (per_call size (fun () -> Ctam_core.Schedule.run machine assignment dg)),
      "ms" );
    ( "core.compile_ms",
      ms (per_call size (fun () -> Mapping.compile Mapping.Combined ~machine prog)),
      "ms" );
    ("core.groups", float_of_int (sum (fun i -> i.Mapping.num_groups)), "count");
    ("deps.edges", float_of_int (sum (fun i -> i.Mapping.dep_edges)), "count");
  ]

(* Engine throughput in its three modes on cg under Combined, full
   capacity Dunnington: dense arrays, generator-backed streams, and
   streamed with 1/16 set sampling (whose cycle error is a model
   number, not a speed). *)
let engine size : metric list =
  let machine, prog =
    match size with
    | Full -> (Machines.dunnington ~scale:1 (), Kernel.program Suite.cg)
    | Smoke -> (Machines.dunnington ~scale:16 (), Kernel.small_program Suite.cg)
  in
  let dense = Mapping.compile Mapping.Combined ~machine prog in
  let gen = Mapping.compile ~stream:true Mapping.Combined ~machine prog in
  let factor = sample_factor machine 16 in
  let exact = Mapping.simulate dense in
  let sampled = Mapping.simulate ~sample_sets:factor gen in
  let macc s = float_of_int exact.Stats.total_accesses /. s /. 1e6 in
  let dense_s = per_call size (fun () -> Mapping.simulate dense) in
  [
    ("cachesim.simulate_ms", ms dense_s, "ms");
    ("cachesim.dense_macc_per_s", macc dense_s, "Macc/s");
    ("cachesim.gen_macc_per_s", macc (per_call size (fun () -> Mapping.simulate gen)), "Macc/s");
    ( "cachesim.sampled_macc_per_s",
      macc (per_call size (fun () -> Mapping.simulate ~sample_sets:factor gen)),
      "Macc/s" );
    ( "cachesim.sampled_cycle_err_pct",
      100. *. List.assoc "cycles" (Stats.rel_errors ~exact ~approx:sampled),
      "%" );
  ]

(* [Hierarchy.access] on each full-capacity commercial machine, over a
   seeded mix of a 1 MB sequential sweep, uniform-random lines of 8 MB
   and a 16 KB hot set, cores taking turns. *)
let hierarchy size ~seed : metric list =
  let n = match size with Full -> 1 lsl 18 | Smoke -> 1 lsl 12 in
  let rng = Random.State.make [| seed; 0x41e |] in
  let addrs =
    Array.init n (fun i ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 -> (i * 8) land ((1 lsl 20) - 1)
        | 4 | 5 | 6 -> (1 lsl 24) + (Random.State.int rng (1 lsl 17) * 64)
        | _ -> (1 lsl 26) + (Random.State.int rng (1 lsl 8) * 64))
  in
  List.map
    (fun name ->
      let machine = Machines.by_name ~scale:1 name in
      let cores = machine.Topology.num_cores in
      let h = Hierarchy.create machine in
      let replay () =
        for i = 0 to n - 1 do
          ignore (Hierarchy.access h ~core:(i mod cores) ~addr:addrs.(i) ~write:(i land 3 = 3))
        done
      in
      ( "cachesim.hierarchy_access_ns." ^ name,
        ns (per_call size replay) /. float_of_int n,
        "ns" ))
    [ "harpertown"; "nehalem"; "dunnington" ]

(* [Setassoc] alone on a 64-set, 8-way cache (an L1 geometry), per
   policy: a hit is [access] on a resident line; a fill is the miss
   path, [access] then [insert] of a line never seen, evicting. *)
let setassoc size ~seed : metric list =
  let n = match size with Full -> 1 lsl 16 | Smoke -> 1 lsl 10 in
  let module S = Ctam_cachesim.Setassoc in
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let resident = Array.init n (fun _ -> Random.State.int rng 512) in
  List.concat_map
    (fun policy ->
      let c = S.create ~policy ~sets:64 ~assoc:8 () in
      for l = 0 to 511 do
        ignore (S.insert c l)
      done;
      let hits () =
        for i = 0 to n - 1 do
          ignore (S.access c resident.(i))
        done
      in
      let next = ref 512 in
      let fills () =
        for _ = 1 to n do
          let l = !next in
          incr next;
          if not (S.access c l) then ignore (S.insert c l)
        done
      in
      let name = match policy with Policy.Random _ -> "random" | p -> Policy.to_string p in
      (* The fills evict the resident lines, so the hits are timed
         first, and must not have missed. *)
      let misses = S.misses c in
      let hit_s = per_call size hits in
      if S.misses c <> misses then failwith ("setassoc probe: a resident line missed under " ^ name);
      let fill_s = per_call size fills in
      [
        ("cachesim.setassoc_hit_ns." ^ name, ns hit_s /. float_of_int n, "ns");
        ("cachesim.setassoc_fill_ns." ^ name, ns fill_s /. float_of_int n, "ns");
      ])
    [ Policy.Lru; Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru; Policy.Random 42 ]

(* The Lackey front end on an in-memory trace from the trace workload's
   generator: the counting scan, and [Ingest.load] (parse plus per-core
   cursors, no engine). *)
let tracein size ~seed : metric list =
  let records = match size with Full -> 1 lsl 16 | Smoke -> 1 lsl 10 in
  let src = Reader.Text (lackey_text ~seed ~records) in
  let opts = { Ingest.default with Ingest.cores = 4 } in
  let scan_s = per_call size (fun () -> Ingest.scan opts src) in
  let scan = Ingest.scan opts src in
  let accesses = Array.fold_left ( + ) 0 scan.Ingest.per_core in
  [
    ("tracein.scan_ms", ms scan_s, "ms");
    ("tracein.lines_per_s", float_of_int scan.Ingest.scanned_lines /. scan_s, "1/s");
    ("tracein.records", float_of_int scan.Ingest.records, "count");
    ( "tracein.load_ns_per_access",
      ns (per_call size (fun () -> Ingest.load ~scan opts src)) /. float_of_int accesses,
      "ns" );
  ]

(* The daemon's per-request stages, in-process, on a cg run request
   (harpertown/64, Combined): the cold execute, and the warm path's
   decode, parse, key, plan-cache hit and encode. *)
let serve size ~examples : metric list =
  let module Plan_cache = Ctam_serve.Plan_cache in
  let req_json =
    J.Obj
      [
        ("op", J.String "run"); ("program", J.String "cg");
        ("machine", J.String "harpertown"); ("scale", J.Int 64);
        ("scheme", J.String "combined");
      ]
  in
  let req =
    match Request.parse req_json with Ok r -> r | Error e -> failwith e
  in
  let execute_s = per_call size (fun () -> Request.execute req) in
  let result, _ = Request.execute req in
  let reply = Protocol.ok_response ~cached:true result in
  let payload = J.to_string ~minify:true reply in
  let key = Request.key req in
  let cache = Plan_cache.create () in
  Plan_cache.add cache key result;
  let source = read_file (Filename.concat examples "matvec_shared.ctam") in
  let program = Kernel.program Suite.cg in
  [
    ("serve.execute_ms", ms execute_s, "ms");
    ("serve.decode_us", us (per_call size (fun () -> J.parse payload)), "us");
    ("serve.parse_us", us (per_call size (fun () -> Request.parse req_json)), "us");
    ("serve.key_us", us (per_call size (fun () -> Request.key req)), "us");
    ("serve.cache_hit_us", us (per_call size (fun () -> Plan_cache.lookup cache key)), "us");
    ("serve.encode_us", us (per_call size (fun () -> J.to_string ~minify:true reply)), "us");
    ( "frontend.compile_us",
      us (per_call size (fun () -> Ctam_frontend.Lower.compile source)),
      "us" );
    ( "frontend.unparse_us",
      us (per_call size (fun () -> Ctam_frontend.Unparse.program program)),
      "us" );
  ]

let all size ~seed ~examples =
  List.concat
    [
      mapper size;
      engine size;
      hierarchy size ~seed;
      setassoc size ~seed;
      tracein size ~seed;
      serve size ~examples;
    ]
