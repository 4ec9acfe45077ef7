(* The performance ledger: one benchmark run per process.

   Usage (from the repository root, after `dune build`):
     ledger.exe --workload W --seed N [--seconds S] [--trace 0|1]
                [--spans FILE] [--out FILE]
         set W up three to nine times (setup_s is the median), measure it for
         S seconds, check its outputs, print every metric with its unit
         and, last, one JSON line {correct, attempted, failed, metrics}:
         the end-to-end metrics untraced, the per-layer metrics traced.
         The run's versioned document goes to FILE (default
         .ledger/runs/); a traced run also writes its spans as Chrome
         trace JSON.
     ledger.exe smoke            every workload at tiny sizes; fails if
                                 a metric named in BENCHMARK.json is
                                 missing or any operation failed
     ledger.exe diff A.json... -- B.json...
                                 per workload x metric: medians,
                                 quartiles and a verdict against the
                                 BENCHMARK.json bound; exits 1 on any
                                 worse or unresolved end-to-end metric
     ledger.exe merge OUT.json IN.json...   pool run documents
     ledger.exe expect OUT.json IN.json...  goldens from run documents

   Common options: --benchmark FILE (BENCHMARK.json), --expect FILE
   (ledger/expect.json), --ctamap EXE (_build/default/bin/ctamap.exe),
   --examples DIR (examples/programs).  All scratch files stay under
   .ledger/ in the working directory. *)

module J = Ctam_util.Json
module W = Workloads

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

(* --- arguments ------------------------------------------------------------------ *)

let flags = Hashtbl.create 16

(* "--NAME VALUE" pairs go to [flags]; a bare "--" and everything else
   stay positional. *)
let rec parse_flags = function
  | [] -> []
  | f :: rest when f <> "--" && String.starts_with ~prefix:"--" f -> (
      match rest with
      | v :: rest ->
          Hashtbl.replace flags f v;
          parse_flags rest
      | [] -> die "%s needs a value" f)
  | positional :: rest -> positional :: parse_flags rest

let flag ?default name =
  match (Hashtbl.find_opt flags name, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> die "missing %s" name

let int_flag ?default name =
  let v = flag ?default:(Option.map string_of_int default) name in
  match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" name v

let float_flag ?default name =
  let v = flag ?default:(Option.map string_of_float default) name in
  match float_of_string_opt v with
  | Some x when x > 0. -> x
  | _ -> die "%s: not a positive number: %s" name v

let scratch = ".ledger"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* --- one workload run -------------------------------------------------------------- *)

let fingerprint (s : W.Stats.t) =
  String.concat " "
    (List.map string_of_int
       ([ s.cycles; s.total_accesses; s.mem_accesses; s.barriers ]
       @ Array.to_list s.core_cycles
       @ List.concat_map
           (fun (l : W.Stats.level_stats) -> [ l.level; l.hits; l.misses ])
           s.per_level))

let digest stats =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun (k, s) -> k ^ "=" ^ fingerprint s) stats)))

(* Hit and memory ratios over every simulated statistic of the run:
   deterministic explainers, so a change in them is a model change. *)
let ratios stats =
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 stats in
  let l1 f (s : W.Stats.t) =
    match s.per_level with l :: _ -> f l | [] -> 0
  in
  let hits = sum (l1 (fun l -> l.hits)) and misses = sum (l1 (fun l -> l.misses)) in
  [
    ( "cachesim.l1_hit_ratio",
      float_of_int hits /. float_of_int (max 1 (hits + misses)),
      "ratio" );
    ( "cachesim.mem_ratio",
      float_of_int (sum (fun s -> s.mem_accesses))
      /. float_of_int (max 1 (sum (fun s -> s.total_accesses))),
      "ratio" );
  ]

let metric_json (name, value, unit) =
  (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ])

let metric_line b (name, value, unit) =
  Printf.bprintf b "  %-42s %14.6g %s\n" name value unit

type outcome = {
  report : string;  (** every metric by name with its unit, checks, errors *)
  run_json : J.t;
  e2e : Probes.metric list;
  layer : Probes.metric list;
  correct : bool;
  attempted : int;
  failed : int;
}

let run_workload ~(env : W.env) ~expect ~(w : W.t) ~seconds ~traced ~spans_path ~probes =
  Span.reset ();
  Span.set traced;
  let setup = w.W.prepare env in
  (* Set-up times: host-normalized (and raw) like the window's.  At
     least three set-ups, and more, up to nine, while they have taken
     under two seconds, so that a set-up of a tenth of a second is not
     judged on three noisy samples. *)
  let least, most = match env.size with W.Full -> (3, 9) | W.Smoke -> (1, 1) in
  let start = Meter.now () in
  let rec set_up i times =
    let st = W.tally () in
    let inst = setup st in
    let tm = W.timings st in
    let times = (tm.W.wall, tm.W.raw_wall) :: times in
    if i < least || (i < most && Meter.now () -. start < 2.) then begin
      inst.W.close ();
      set_up (i + 1) times
    end
    else (inst, times)
  in
  let inst, setup_times = set_up 1 [] in
  let setups = List.length setup_times in
  let t = W.tally ~paired:traced () in
  let gc0 = Gc.quick_stat () in
  let gc1, rss, (checks, stats) =
    Fun.protect ~finally:inst.W.close (fun () ->
        inst.W.measure t ~seconds;
        let gc1 = Gc.quick_stat () in
        let rss = Meter.peak_rss_mb ?pid:inst.W.rss_pid () in
        let finished =
          try inst.W.finish ()
          with e -> ([ ("checks ran: " ^ Printexc.to_string e, false) ], [])
        in
        (gc1, rss, finished))
  in
  let d = digest stats in
  let golden =
    match env.size with
    | W.Smoke -> None
    | W.Full -> Record.golden expect ~workload:w.W.name ~seed:env.seed
  in
  let checks =
    checks
    @ match golden with
      | Some g -> [ ("statistics digest equals the golden", g = d) ]
      | None -> []
  in
  let tm = W.timings t in
  let ops = List.length tm.W.lat in
  let timings setup lat wall =
    [
      ("setup_s", Meter.median setup, "s");
      ("ops_per_s", float_of_int ops /. wall, "1/s");
      ("op_p50_ms", 1e3 *. Meter.quantile lat 0.5, "ms");
      ("op_p75_ms", 1e3 *. Meter.quantile lat 0.75, "ms");
    ]
  in
  let e2e =
    timings (List.map fst setup_times) tm.W.lat tm.W.wall @ [ ("peak_rss_mb", rss, "MB") ]
  in
  let raw = timings (List.map snd setup_times) tm.W.raw_lat tm.W.raw_wall in
  let spans = Span.collect () in
  Span.reset ();
  let layer =
    if not traced then []
    else
      let per_op x = x /. float_of_int (max 1 ops) in
      ratios stats
      @ [
          ("gc.minor_words_per_op", per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words), "words");
          ("gc.major_words_per_op", per_op (gc1.Gc.major_words -. gc0.Gc.major_words), "words");
          (* Every segment of the window ran traced and untraced.  The
             median ratio ignores the pairs whose two copies a change of
             host speed fell between. *)
          ("trace_overhead_pct", 100. *. (Meter.median t.W.pair_ratios -. 1.), "%");
        ]
      @ probes ()
  in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let attempted = t.W.attempted + List.length checks in
  let failed = t.W.failed + failed_checks in
  let layers =
    List.map
      (fun (name, (calls, total, self)) ->
        ( name,
          J.Obj
            [ ("calls", J.Int calls); ("total_s", J.Float total); ("self_s", J.Float self) ] ))
      (Span.self_times spans)
  in
  (match spans_path with
  | Some p when traced ->
      mkdir_p (Filename.dirname p);
      Record.write_json p (Span.chrome_json spans)
  | _ -> ());
  let b = Buffer.create 4096 in
  Printf.bprintf b "%s (seed %d, %s, %g s window): %d ops, %d failed\n" w.W.name
    env.seed
    (if traced then "traced" else "untraced")
    seconds t.W.attempted t.W.failed;
  List.iter (metric_line b) (e2e @ layer);
  List.iter
    (fun (name, (calls, total, self)) ->
      Printf.bprintf b "  span %-20s %8d calls %10.4f s total %10.4f s self\n" name
        calls total self)
    (Span.self_times spans);
  List.iter
    (fun (c, ok) -> Printf.bprintf b "  check %-60s %s\n" c (if ok then "ok" else "FAILED"))
    checks;
  List.iter (fun e -> Printf.bprintf b "  error %s\n" e) (List.rev t.W.errors);
  let run_json =
    J.Obj
      [
        ("workload", J.String w.W.name);
        ("why", J.String w.W.why);
        ("seed", J.Int env.seed);
        ("size", J.String (match env.size with W.Full -> "full" | W.Smoke -> "smoke"));
        ("traced", J.Bool traced);
        ("seconds", J.Float seconds);
        ("correct", J.Bool (failed = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("samples", J.Obj [ ("ops", J.Int ops); ("setups", J.Int setups) ]);
        ( "checks",
          J.List
            (List.map
               (fun (c, ok) -> J.Obj [ ("name", J.String c); ("ok", J.Bool ok) ])
               checks) );
        ("digest", J.String d);
        ( "golden",
          J.String
            (match golden with
            | None -> "unchecked"
            | Some g when g = d -> "match"
            | Some _ -> "mismatch") );
        ("metrics", J.Obj (List.map metric_json (e2e @ layer)));
        ("raw_metrics", J.Obj (List.map metric_json raw));
        ("reference_ms", J.Float (1e3 *. tm.W.reference));
        ("layers", J.Obj layers);
      ]
  in
  { report = Buffer.contents b; run_json; e2e; layer; correct = failed = 0; attempted; failed }

(* --- entry points ---------------------------------------------------------------- *)

let env_of size seed tmp =
  {
    W.size;
    seed;
    tmp;
    ctamap = flag ~default:"_build/default/bin/ctamap.exe" "--ctamap";
    examples = flag ~default:"examples/programs" "--examples";
  }

let with_tmp f =
  let tmp = Filename.concat scratch (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  let cleanup () =
    W.stop_all ();
    if Sys.file_exists tmp then begin
      Array.iter (fun e -> try Sys.remove (Filename.concat tmp e) with Sys_error _ -> ())
        (Sys.readdir tmp);
      try Sys.rmdir tmp with Sys_error _ -> ()
    end
  in
  (* [exit] skips [Fun.protect]; [at_exit] covers it. *)
  at_exit cleanup;
  Fun.protect ~finally:cleanup (fun () -> f tmp)

let expect () =
  let path = flag ~default:"ledger/expect.json" "--expect" in
  if Sys.file_exists path then Record.read_json path else J.Obj []

let bench () =
  let name = flag "--workload" in
  let w =
    match W.by_name name with
    | Some w -> w
    | None ->
        die "unknown workload %s (known: %s)" name
          (String.concat ", " (List.map (fun w -> w.W.name) W.all))
  in
  let seed = int_flag "--seed" in
  let seconds = float_flag ~default:10. "--seconds" in
  let traced =
    match flag ~default:"0" "--trace" with
    | "0" -> false
    | "1" -> true
    | v -> die "--trace expects 0 or 1, got %s" v
  in
  let stem = Printf.sprintf "%s-seed%d-%s-%d" name seed
      (if traced then "traced" else "untraced") (Unix.getpid ()) in
  let out = flag ~default:(Filename.concat scratch ("runs/" ^ stem ^ ".json")) "--out" in
  let spans_path =
    flag ~default:(Filename.concat scratch ("spans/" ^ stem ^ ".json")) "--spans"
  in
  let expect = expect () in
  let o =
    with_tmp (fun tmp ->
        let env = env_of W.Full seed tmp in
        run_workload ~env ~expect ~w ~seconds ~traced ~spans_path:(Some spans_path)
          ~probes:(fun () -> Probes.all W.Full ~seed ~examples:env.W.examples))
  in
  mkdir_p (Filename.dirname out);
  Record.write_json out (Record.document [ o.run_json ]);
  print_string o.report;
  print_endline
    (J.to_string ~minify:true
       (J.Obj
          [
            ("correct", J.Bool o.correct);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ( "metrics",
              J.Obj (List.map metric_json (if traced then o.layer else o.e2e)) );
          ]))

let smoke () =
  let benchmark = Record.load_benchmark (flag ~default:"BENCHMARK.json" "--benchmark") in
  let missing = ref [] and failed = ref 0 in
  (* The probes do not depend on the workload: run them once. *)
  let probes = lazy (Probes.all W.Smoke ~seed:1 ~examples:(flag ~default:"examples/programs" "--examples")) in
  let need names got =
    List.iter
      (fun (s : Record.spec) ->
        if not (List.exists (fun (n, _, _) -> n = s.Record.name) got) then
          missing := s.Record.name :: !missing)
      names
  in
  let runs traced =
    List.map
      (fun name ->
        match W.by_name name with
        | None -> die "BENCHMARK.json names unknown workload %s" name
        | Some w ->
            let o =
              with_tmp (fun tmp ->
                  run_workload ~env:(env_of W.Smoke 1 tmp) ~expect:(J.Obj []) ~w
                    ~seconds:0.3 ~traced ~spans_path:None
                    ~probes:(fun () -> Lazy.force probes))
            in
            need (if traced then benchmark.Record.per_layer else benchmark.Record.end_to_end)
              (if traced then o.layer else o.e2e);
            failed := !failed + o.failed;
            if o.failed > 0 then prerr_string o.report;
            o.run_json)
      benchmark.Record.workloads
  in
  let untraced = runs false in
  let traced = runs true in
  mkdir_p scratch;
  Record.write_json (Filename.concat scratch "smoke.json")
    (Record.document (untraced @ traced));
  if !missing <> [] || !failed > 0 then begin
    Printf.eprintf "ledger smoke: FAILED (%d failed operations or checks; missing metrics: %s)\n"
      !failed
      (String.concat ", " (List.sort_uniq compare !missing));
    exit 1
  end;
  print_endline "smoke: every BENCHMARK.json metric reported, no failed operation"

let () =
  let args = parse_flags (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [] -> bench ()
  | [ "smoke" ] -> smoke ()
  | "diff" :: files -> (
      let benchmark = Record.load_benchmark (flag ~default:"BENCHMARK.json" "--benchmark") in
      let rec split acc = function
        | "--" :: rest -> (List.rev acc, rest)
        | f :: rest -> split (f :: acc) rest
        | [] -> die "diff: separate the two sides with --"
      in
      match split [] files with
      | [], _ | _, [] -> die "diff: each side needs at least one document"
      | a, b ->
          let bad =
            Record.diff ~benchmark
              (List.map Record.read_document a)
              (List.map Record.read_document b)
          in
          if bad > 0 then exit 1)
  | [ "merge"; out ] | [ "expect"; out ] -> die "%s: no input documents" out
  | "merge" :: out :: inputs ->
      Record.write_json out (Record.merge (List.map Record.read_document inputs))
  | "expect" :: out :: inputs ->
      Record.write_json out (Record.expect_of (List.map Record.read_document inputs))
  | _ -> die "unknown arguments (see the header of ledger/ledger.ml)"
