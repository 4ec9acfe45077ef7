(* Tests for the autotuning subsystem: the search space, the
   persistent result cache, the cost oracle's cycle cap, and the
   determinism / best-not-worse-than-default guarantees of the three
   search strategies. *)

open Ctam_arch
open Ctam_core
open Ctam_tune
module J = Ctam_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let machine = Machines.dunnington ~scale:64 ()
let program = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.cg

(* A cache directory that does not exist yet, in a temp directory
   removed after [f]. *)
let with_cache_dir f =
  Harness.with_temp_dir @@ fun tmp -> f (Filename.concat tmp "cache")

(* A 3-point space keeps search tests fast: Base collapses to one
   canonical point, Combined keeps both betas. *)
let tiny_axes =
  {
    Space.schemes = [ Mapping.Base; Mapping.Combined ];
    alphas = [ 0.5 ];
    betas = [ 0.25; 0.5 ];
    balances = [ 0.1 ];
    tile_edges = [ None ];
  }

(* --- Space ------------------------------------------------------------ *)

let test_canonical_pins_unused () =
  let p =
    {
      Space.scheme = Mapping.Base;
      alpha = 9.;
      beta = 9.;
      balance = 9.;
      tile_edge = Some 32;
    }
  in
  let c = Space.canonical p in
  let d = Mapping.default_params in
  check_bool "alpha pinned" true (c.Space.alpha = d.Mapping.alpha);
  check_bool "beta pinned" true (c.Space.beta = d.Mapping.beta);
  check_bool "balance pinned" true
    (c.Space.balance = d.Mapping.balance_threshold);
  check_bool "tile pinned" true (c.Space.tile_edge = None);
  (* Combined keeps the weights and balance but not the tile. *)
  let c = Space.canonical { p with Space.scheme = Mapping.Combined } in
  check_bool "alpha kept" true (c.Space.alpha = 9.);
  check_bool "balance kept" true (c.Space.balance = 9.);
  check_bool "tile dropped" true (c.Space.tile_edge = None);
  (* Base+ keeps only the tile. *)
  let c = Space.canonical { p with Space.scheme = Mapping.Base_plus } in
  check_bool "tile kept" true (c.Space.tile_edge = Some 32);
  check_bool "alpha pinned for base+" true (c.Space.alpha = d.Mapping.alpha)

let test_grid_dedup_and_default () =
  let g = Space.grid Space.default_axes in
  check_int "default grid size" 43 (List.length g);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let k = Space.key_fragment p in
      check_bool ("distinct " ^ k) false (Hashtbl.mem seen k);
      Hashtbl.add seen k ())
    g;
  List.iter
    (fun scheme ->
      check_bool
        ("default point in grid for " ^ Mapping.scheme_id scheme)
        true
        (List.exists
           (Space.equal (Space.canonical (Space.default_point ~scheme ())))
           g))
    Mapping.all_schemes;
  check_int "tiny grid size" 3 (List.length (Space.grid tiny_axes));
  Alcotest.check_raises "empty axis"
    (Invalid_argument "Space.grid: empty axis") (fun () ->
      ignore (Space.grid { tiny_axes with Space.alphas = [] }))

let test_point_json_roundtrip () =
  List.iter
    (fun p ->
      match Space.of_json (Space.to_json p) with
      | Ok q ->
          check_bool
            (Fmt.str "roundtrip %a" Space.pp p)
            true (Space.equal p q)
      | Error e -> Alcotest.fail e)
    (Space.grid Space.default_axes);
  (* Missing members default. *)
  (match Space.of_json (J.Obj [ ("alpha", J.Float 0.75) ]) with
  | Ok p ->
      check_bool "alpha read" true (p.Space.alpha = 0.75);
      check_bool "rest defaulted" true
        (p.Space.scheme = Mapping.Combined
        && p.Space.beta = Mapping.default_params.Mapping.beta)
  | Error e -> Alcotest.fail e);
  match Space.of_json (J.Obj [ ("scheme", J.String "no-such") ]) with
  | Ok _ -> Alcotest.fail "accepted bad scheme"
  | Error _ -> ()

(* --- Eval: the cycle cap ---------------------------------------------- *)

let test_max_cycles_cap () =
  let compiled = Mapping.compile Mapping.Combined ~machine program in
  let full = Mapping.simulate compiled in
  let full_cycles = full.Ctam_cachesim.Stats.cycles in
  check_bool "runs" true (full_cycles > 0);
  let cap = full_cycles / 2 in
  let capped = Mapping.simulate ~max_cycles:cap compiled in
  check_bool "stops early" true
    (capped.Ctam_cachesim.Stats.total_accesses
    < full.Ctam_cachesim.Stats.total_accesses);
  check_bool "at least the cap" true
    (capped.Ctam_cachesim.Stats.cycles >= cap);
  (* A cap beyond the natural length changes nothing. *)
  let loose = Mapping.simulate ~max_cycles:(2 * full_cycles) compiled in
  check_int "loose cap cycles" full_cycles loose.Ctam_cachesim.Stats.cycles;
  check_int "loose cap accesses" full.Ctam_cachesim.Stats.total_accesses
    loose.Ctam_cachesim.Stats.total_accesses;
  (* The oracle reports the truncation. *)
  let o =
    Eval.evaluate ~max_cycles:cap ~machine program
      (Space.default_point ())
  in
  check_bool "outcome capped" true o.Eval.capped;
  let o = Eval.evaluate ~machine program (Space.default_point ()) in
  check_bool "outcome uncapped" false o.Eval.capped;
  check_int "oracle matches simulate" full_cycles o.Eval.cycles

(* --- Cache ------------------------------------------------------------ *)

let test_cache_key_sensitivity () =
  let base = Mapping.default_params in
  let point = Space.default_point () in
  let k ?(version = "v") ?(params = base) ?(m = machine) ?max_cycles
      ?(prog = program) ?(pt = point) () =
    Cache.key ~version ~base_params:params ~machine:m ~max_cycles prog pt
  in
  let k0 = k () in
  check_string "stable" k0 (k ());
  let other_program =
    Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.sp
  in
  List.iter
    (fun (what, k') -> check_bool what true (k' <> k0))
    [
      ("version", k ~version:"w" ());
      ("block size", k ~params:{ base with Mapping.block_size = 1024 } ());
      ("machine", k ~m:(Machines.harpertown ~scale:64 ()) ());
      ( "machine scale",
        k ~m:(Machines.dunnington ~scale:32 ()) () );
      ("cap", k ~max_cycles:1000 ());
      ("program", k ~prog:other_program ());
      ("point", k ~pt:{ point with Space.alpha = 0.75 } ());
    ]

let test_cache_key_sample_sets () =
  (* Sampled outcomes are approximate, so the factor must split the
     key — but the default factor (1 = exact) must leave keys
     byte-identical to pre-sampling ones, keeping existing persistent
     caches warm. *)
  let k ?sample_sets () =
    Cache.key ~version:"v" ~base_params:Mapping.default_params ~machine
      ~max_cycles:None ?sample_sets program (Space.default_point ())
  in
  check_string "default factor keys unchanged" (k ()) (k ~sample_sets:1 ());
  check_bool "sampled keys split" true (k ~sample_sets:4 () <> k ());
  check_bool "factors split from each other" true
    (k ~sample_sets:4 () <> k ~sample_sets:8 ())

let test_cache_store_lookup () =
  with_cache_dir @@ fun dir ->
  let key =
    Cache.key ~version:"v" ~base_params:Mapping.default_params
      ~machine ~max_cycles:None program (Space.default_point ())
  in
  check_bool "miss on empty dir" true (Cache.lookup ~dir key = None);
  let o =
    { Eval.cycles = 123; mem_accesses = 45; total_accesses = 678; capped = false }
  in
  Cache.store ~dir key o;
  (match Cache.lookup ~dir key with
  | Some o' -> check_bool "roundtrip" true (o' = o)
  | None -> Alcotest.fail "stored entry not found");
  (* A colliding file (same hash stem, different stored key) is a miss,
     not a wrong answer. *)
  let path = Filename.concat dir ("ctam-tune-" ^ Cache.hash key ^ ".json") in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("key", J.String "other"); ("outcome", Eval.outcome_to_json o) ]));
  close_out oc;
  check_bool "collision is a miss" true (Cache.lookup ~dir key = None);
  (* Corrupt JSON is a miss too. *)
  let oc = open_out path in
  output_string oc "{not json";
  close_out oc;
  check_bool "corrupt is a miss" true (Cache.lookup ~dir key = None)

module Tel = Ctam_telemetry

let tune_counter name labels =
  match Tel.Metrics.find (Tel.Metrics.scrape Tel.Metrics.default) name labels with
  | Some (Tel.Metrics.Counter n) -> n
  | _ -> 0

let entry = { Eval.cycles = 9; mem_accesses = 1; total_accesses = 2; capped = false }

let make_key () =
  Cache.key ~version:"v" ~base_params:Mapping.default_params ~machine
    ~max_cycles:None program
    (Space.default_point ())

(* Regression: an entry file holding valid JSON that is not an object
   (say "[]", from a crashed or foreign writer) used to escape
   [lookup] as an exception and kill the whole tuning run.  It must be
   an ordinary counted, logged miss like unparseable bytes are. *)
let test_cache_non_object_entry () =
  Tel.Metrics.set_enabled true;
  with_cache_dir @@ fun dir ->
  let key = make_key () in
  Cache.store ~dir key entry;
  let path = Filename.concat dir ("ctam-tune-" ^ Cache.hash key ^ ".json") in
  let corrupt () = tune_counter "ctam_tune_cache_lookups_total" [ ("result", "corrupt") ] in
  List.iter
    (fun payload ->
      let oc = open_out path in
      output_string oc payload;
      close_out oc;
      let before = corrupt () in
      check_bool ("non-object entry is a miss: " ^ payload) true
        (Cache.lookup ~dir key = None);
      check_int ("corruption counted: " ^ payload) (before + 1) (corrupt ()))
    [ "[]"; "\"zap\""; "42"; "null" ];
  (* A rewrite heals it. *)
  Cache.store ~dir key entry;
  check_bool "healed after re-store" true (Cache.lookup ~dir key = Some entry)

(* Regression: a failing store used to leave its temp file behind (and
   a short write could be installed as a truncated entry).  A store
   that cannot complete must clean up, count the failure, and stay an
   optimisation — never an exception. *)
let test_cache_store_failure () =
  Tel.Metrics.set_enabled true;
  with_cache_dir @@ fun dir ->
  let key = make_key () in
  (* A directory squatting on the entry path makes the final rename
     fail after the temp file was already written. *)
  let path = Filename.concat dir ("ctam-tune-" ^ Cache.hash key ^ ".json") in
  Unix.mkdir dir 0o755;
  Unix.mkdir path 0o755;
  let failures () = tune_counter "ctam_tune_cache_store_failures_total" [] in
  let before = failures () in
  Cache.store ~dir key entry;
  check_int "failure counted" (before + 1) (failures ());
  (* No temp-file litter: the squatting directory must be the only
     thing left in the cache directory. *)
  check_int "no temp files left behind" 1 (Array.length (Sys.readdir dir));
  check_bool "lookup still a miss" true (Cache.lookup ~dir key = None);
  (* An unwritable cache directory is the same story (meaningless when
     running as root, which bypasses permission checks). *)
  if Unix.geteuid () <> 0 then begin
    let ro = Filename.concat (Filename.dirname dir) "read-only" in
    Unix.mkdir ro 0o500;
    let before = failures () in
    Cache.store ~dir:ro key entry;
    check_int "read-only dir counted" (before + 1) (failures ());
    check_int "read-only dir left clean" 0 (Array.length (Sys.readdir ro))
  end

(* --- Search ----------------------------------------------------------- *)

let settings strategy =
  { Search.default_settings with Search.strategy; axes = tiny_axes }

let test_best_not_worse_than_default () =
  List.iter
    (fun strategy ->
      let r =
        Search.run (settings strategy) ~machine ~program_name:"cg" program
      in
      let name = Search.strategy_id strategy in
      check_bool (name ^ " baseline is the first trial") true
        (match r.Search.trials with
        | t :: _ -> Space.equal t.Search.point r.Search.baseline.Search.point
        | [] -> false);
      check_bool (name ^ " best <= default") true
        (Eval.compare_outcome r.Search.best.Search.outcome
           r.Search.baseline.Search.outcome
        <= 0);
      check_bool (name ^ " best is uncapped") true
        (r.Search.best.Search.rung = None);
      check_bool (name ^ " improvement >= 1") true
        (Search.improvement r >= 1.))
    [ Search.Grid; Search.Descent; Search.Halving ]

let test_jobs_do_not_change_report () =
  let report jobs =
    let s = { (settings Search.Grid) with Search.jobs = Some jobs } in
    J.to_string (Search.to_json (Search.run s ~machine ~program_name:"cg" program))
  in
  check_string "j1 = j4" (report 1) (report 4)

let test_memo_does_not_change_report () =
  (* The engine phase memo is exact: a memoized search must produce a
     byte-identical report, whether the table is private to one domain
     or shared across a parallel map. *)
  let report ~memo jobs =
    let s =
      { (settings Search.Grid) with Search.jobs = Some jobs; memo }
    in
    J.to_string
      (Search.to_json (Search.run s ~machine ~program_name:"cg" program))
  in
  let plain = report ~memo:false 1 in
  check_string "memo j1" plain (report ~memo:true 1);
  check_string "memo j4" plain (report ~memo:true 4)

let test_stream_does_not_change_report () =
  (* Generator-backed evaluation is bit-identical too. *)
  let report stream =
    let s = { (settings Search.Grid) with Search.stream } in
    J.to_string
      (Search.to_json (Search.run s ~machine ~program_name:"cg" program))
  in
  check_string "streamed == dense" (report false) (report true)

let test_budget_caps_simulations () =
  let s = { (settings Search.Grid) with Search.budget = Some 1 } in
  let r = Search.run s ~machine ~program_name:"cg" program in
  (* The baseline is free; one more simulation allowed. *)
  check_int "simulations" 2 r.Search.simulations;
  check_bool "still not worse" true
    (Eval.compare_outcome r.Search.best.Search.outcome
       r.Search.baseline.Search.outcome
    <= 0)

let test_warm_cache_simulates_nothing () =
  with_cache_dir @@ fun dir ->
  let s = { (settings Search.Grid) with Search.cache_dir = Some dir } in
  let cold = Search.run s ~machine ~program_name:"cg" program in
  check_bool "cold run simulates" true (cold.Search.simulations > 0);
  check_int "cold run has no hits" 0 cold.Search.cache_hits;
  let warm = Search.run s ~machine ~program_name:"cg" program in
  check_int "warm run simulates nothing" 0 warm.Search.simulations;
  check_int "warm run hits everything" cold.Search.simulations
    warm.Search.cache_hits;
  check_bool "same winner" true
    (Space.equal cold.Search.best.Search.point warm.Search.best.Search.point
    && cold.Search.best.Search.outcome = warm.Search.best.Search.outcome);
  (* The cache never changes the result, only the counters. *)
  let nocache =
    Search.run (settings Search.Grid) ~machine ~program_name:"cg" program
  in
  check_bool "same winner without cache" true
    (Space.equal cold.Search.best.Search.point nocache.Search.best.Search.point)

let test_report_shape () =
  let s = { (settings Search.Descent) with Search.verify = true } in
  let r = Search.run s ~machine ~program_name:"cg" program in
  check_bool "verified" true (r.Search.verify_ok = Some true);
  let j = Search.to_json r in
  let m name = J.member name j in
  check_bool "tune version" true (m "ctam_tune_version" = Some (J.Int 1));
  check_bool "program" true (m "program" = Some (J.String "cg"));
  check_bool "strategy" true (m "strategy" = Some (J.String "descent"));
  check_bool "has best" true (m "best" <> None);
  (match m "tuned_vs_default" with
  | Some (J.Float f) -> check_bool "ratio <= 1" true (f <= 1.0 && f > 0.)
  | _ -> Alcotest.fail "tuned_vs_default missing");
  (* The winning params file round-trips into a point. *)
  match Space.of_json (Search.best_params_json r) with
  | Ok p -> check_bool "params file" true (Space.equal p r.Search.best.Search.point)
  | Error e -> Alcotest.fail e

(* --- the CLI ---------------------------------------------------------- *)

(* A [ctamap tune --json] report: the version marker and members, a
   best outcome that never loses to the baseline, a [tuned_vs_default]
   ratio that matches the two cycle counts, the baseline as the first
   trial, and at most [max_sims] simulations if given. *)
let check_tune_report ?max_sims ~what j =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let member name j =
    match J.member name j with Some v -> v | None -> fail "member %S missing" name
  in
  let int name j =
    match member name j with J.Int i -> i | _ -> fail "%S is not an int" name
  in
  if J.member "ctam_tune_version" j <> Some (J.Int 1) then
    fail "no ctam_tune_version 1";
  List.iter
    (fun name ->
      match member name j with
      | J.String _ -> ()
      | _ -> fail "%S is not a string" name)
    [ "program"; "machine" ];
  (match member "strategy" j with
  | J.String ("grid" | "descent" | "halving") -> ()
  | _ -> fail "unknown strategy");
  let outcome t =
    let o = member "outcome" t in
    let cycles = int "cycles" o and mem = int "mem_accesses" o in
    if cycles < 0 || mem < 0 then fail "negative counts";
    (cycles, mem)
  in
  let baseline = member "baseline" j in
  let base_cycles, _ = outcome baseline in
  let best = outcome (member "best" j) in
  if best > outcome baseline then fail "the best outcome loses to the default";
  (match member "tuned_vs_default" j with
  | J.Float r ->
      let expect =
        if base_cycles = 0 then 1.0
        else float_of_int (fst best) /. float_of_int base_cycles
      in
      if Float.abs (r -. expect) > 1e-9 then
        fail "tuned_vs_default %g is not the cycles ratio %g" r expect
  | _ -> fail "tuned_vs_default is not a float");
  let sims = int "simulations" j in
  if sims < 0 || int "cache_hits" j < 0 then fail "negative counters";
  (match member "trials" j with
  | J.List (first :: _ as trials) ->
      if member "point" first <> member "point" baseline then
        fail "the first trial is not the baseline";
      List.iter (fun t -> ignore (outcome t)) trials
  | _ -> fail "no trials recorded");
  match max_sims with
  | Some n when sims > n -> fail "%d simulations, at most %d expected" sims n
  | _ -> ()

(* A budget-capped [ctamap tune] gives byte-identical reports at -j 1
   and -j 4 with separate caches, simulates nothing against a warm
   cache, and saves params that [run] and [compare] take; [run] refuses
   a negative --alpha. *)
let test_cli_tune () =
  Harness.with_temp_dir @@ fun dir ->
  let file = Filename.concat dir in
  let cg = [ "cg"; "-m"; "harpertown"; "--scale"; "64" ] in
  let tune jobs cache json extra =
    ignore
      (Harness.out Harness.ctamap
         (("tune" :: cg)
         @ [ "--strategy"; "grid"; "--budget"; "6"; "-j"; jobs; "--cache";
             file cache; "--json"; file json ]
         @ extra))
  in
  tune "1" "c1" "r1.json" [ "--save-params"; file "params.json" ];
  tune "4" "c2" "r2.json" [];
  check_string "-j 1 and -j 4 reports"
    (Harness.read_file (file "r1.json"))
    (Harness.read_file (file "r2.json"));
  check_tune_report ~what:"r1.json" (Harness.read_json (file "r1.json"));
  tune "4" "c1" "r3.json" [];
  check_tune_report ~max_sims:0 ~what:"warm r3.json"
    (Harness.read_json (file "r3.json"));
  let params = [ "--params"; file "params.json" ] in
  ignore (Harness.out Harness.ctamap (("run" :: cg) @ params));
  ignore
    (Harness.out Harness.ctamap (("compare" :: cg) @ params @ [ "-j"; "4" ]));
  ignore
    (Harness.refused ~affix:"alpha" Harness.ctamap
       (("run" :: cg) @ [ "--alpha=-1" ]))

(* The topology fragment as it was built before [Topology.paths]: one
   [Topology.path_of_core] walk per core.  The key text must not move,
   or every warm tune and plan cache would go cold. *)
let per_core_fragment (m : Topology.t) =
  let cache_fragment (c : Topology.cache_params) =
    Printf.sprintf "%s:L%d:%db:%dw:%dl:%dc%s" c.cache_name c.level
      c.size_bytes c.assoc c.line c.latency
      (if Policy.equal c.policy Policy.Lru then ""
       else ":" ^ Policy.to_string c.policy)
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "machine=%s clock=%h mem=%d cores=%d" m.name m.clock_ghz
       m.mem_latency m.num_cores);
  for c = 0 to m.num_cores - 1 do
    Buffer.add_string b (Printf.sprintf "\ncore%d=" c);
    List.iter
      (fun cp ->
        Buffer.add_char b '/';
        Buffer.add_string b (cache_fragment cp))
      (Topology.path_of_core m c)
  done;
  Buffer.contents b

let test_topology_fragment_unchanged () =
  let policy_file =
    Topo_parse.parse
      {|(machine "Mixed" (clock 2.5) (mem 200)
  (cache "L3" (level 3) (size 8M) (assoc 16) (line 64) (latency 30)
    (policy qlru)
    (cache "L2#0" (level 2) (size 1M) (assoc 8) (line 64) (latency 10)
      (policy random:9)
      (cache "L1#0" (level 1) (size 32K) (assoc 8) (line 64) (latency 3)
        (policy plru) (cores 2))
      (cache "L1#1" (level 1) (size 32K) (assoc 8) (line 64) (latency 3)
        (core)))
    (cache "L1#2" (level 1) (size 32K) (assoc 4) (line 64) (latency 3)
      (policy fifo) (core))))|}
  in
  (* 2,048 cores: two sockets of 1,024, an L2 per pair of cores. *)
  let wide =
    let cache name level size_bytes children =
      Topology.Cache
        ( {
            Topology.cache_name = name;
            level;
            size_bytes;
            assoc = 8;
            line = 64;
            latency = 4 * level;
            policy = Policy.Lru;
          },
          children )
    in
    Topology.make ~name:"wide" ~clock_ghz:2.0 ~mem_latency:300
      (List.init 2 (fun s ->
           cache (Printf.sprintf "L3#%d" s) 3 (1 lsl 24)
             (List.init 512 (fun p ->
                  let p = (512 * s) + p in
                  cache (Printf.sprintf "L2#%d" p) 2 (1 lsl 18)
                    (List.init 2 (fun i ->
                         let c = (2 * p) + i in
                         cache (Printf.sprintf "L1#%d" c) 1 (1 lsl 15)
                           [ Topology.Core c ]))))))
  in
  List.iter
    (fun (m : Topology.t) ->
      check_string (m.name ^ " fragment") (per_core_fragment m)
        (Cache.topology_fragment m))
    (List.map (Machines.by_name ~scale:16)
       [ "harpertown"; "nehalem"; "dunnington"; "arch-i"; "arch-ii" ]
    @ [ policy_file; wide ])

let () =
  Alcotest.run "tune"
    [
      ( "space",
        [
          Alcotest.test_case "canonical pins unused" `Quick
            test_canonical_pins_unused;
          Alcotest.test_case "grid dedup + defaults" `Quick
            test_grid_dedup_and_default;
          Alcotest.test_case "json roundtrip" `Quick test_point_json_roundtrip;
        ] );
      ( "eval",
        [ Alcotest.test_case "max_cycles cap" `Quick test_max_cycles_cap ] );
      ( "cache",
        [
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "sample_sets keys" `Quick
            test_cache_key_sample_sets;
          Alcotest.test_case "topology fragment == per-core paths" `Quick
            test_topology_fragment_unchanged;
          Alcotest.test_case "store/lookup" `Quick test_cache_store_lookup;
          Alcotest.test_case "non-object entry is a counted miss" `Quick
            test_cache_non_object_entry;
          Alcotest.test_case "store failure is counted and clean" `Quick
            test_cache_store_failure;
        ] );
      ( "search",
        [
          Alcotest.test_case "best <= default" `Quick
            test_best_not_worse_than_default;
          Alcotest.test_case "jobs invariant" `Quick
            test_jobs_do_not_change_report;
          Alcotest.test_case "memo invariant" `Quick
            test_memo_does_not_change_report;
          Alcotest.test_case "stream invariant" `Quick
            test_stream_does_not_change_report;
          Alcotest.test_case "budget" `Quick test_budget_caps_simulations;
          Alcotest.test_case "warm cache" `Quick
            test_warm_cache_simulates_nothing;
          Alcotest.test_case "report shape" `Quick test_report_shape;
        ] );
      ("cli", [ Alcotest.test_case "tune, run, compare" `Quick test_cli_tune ]);
    ]
