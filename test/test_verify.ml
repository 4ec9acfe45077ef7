(* Tests for the mapping legality checker: the four invariants on real
   mappings, the injected-corruption negative modes, the trace-level
   race detector, and the [ctamap check] exit-code contract. *)

open Ctam_arch
open Ctam_cachesim
open Ctam_core
open Ctam_workloads
open Ctam_verify

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let scale = 64
let machine name = Machines.by_name ~scale name

let compile ?(machine = machine "dunnington") ?(scheme = Mapping.Combined) k =
  Mapping.compile scheme ~machine (Kernel.small_program k)

let has_invariant name r =
  List.exists (fun i -> i.Verify.invariant = name) r.Verify.issues

(* --- topology well-formedness ---------------------------------------- *)

let test_topology_presets () =
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ " well-formed") []
        (List.map
           (fun i -> i.Verify.detail)
           (Verify.check_topology (machine name))))
    [ "harpertown"; "nehalem"; "dunnington"; "arch-i"; "arch-ii" ]

(* --- positive: the real pipeline passes everywhere -------------------- *)

let test_suite_combined () =
  List.iter
    (fun mname ->
      let machine = machine mname in
      List.iter
        (fun (k : Kernel.t) ->
          let c = Mapping.compile Mapping.Combined ~machine
              (Kernel.small_program k)
          in
          let r = Verify.check c in
          Alcotest.(check (list string))
            (Printf.sprintf "%s on %s" k.Kernel.name mname)
            []
            (List.map (fun i -> i.Verify.invariant ^ ": " ^ i.Verify.detail)
               r.Verify.issues);
          check_bool "did real work" true (r.Verify.points_checked > 0))
        Suite.all)
    [ "harpertown"; "nehalem"; "dunnington" ]

let test_dependent_kernels_all_schemes () =
  (* sp and facesim carry loop-level dependences: every scheme must
     still order their dependence edges, and the checker must actually
     see those edges. *)
  List.iter
    (fun k ->
      List.iter
        (fun scheme ->
          let c = compile ~scheme k in
          let r = Verify.check c in
          check_bool
            (Printf.sprintf "%s/%s clean" k.Kernel.name
               (Mapping.scheme_name scheme))
            true (Verify.ok r);
          check_bool
            (Printf.sprintf "%s/%s edges seen" k.Kernel.name
               (Mapping.scheme_name scheme))
            true
            (r.Verify.edges_checked > 0))
        Mapping.all_schemes)
    [ Suite.sp; Suite.facesim ]

let test_cluster_mode () =
  (* §3.5.2 Cluster mode serializes each dependent cluster on one core
     instead of adding barriers: ordering is then same-round, same-core
     position — the second arm of the checker's precedence rule. *)
  let params =
    {
      Mapping.default_params with
      dependence_mode = Ctam_core.Distribute.Cluster;
    }
  in
  List.iter
    (fun (k : Kernel.t) ->
      let c =
        Mapping.compile ~params Mapping.Combined
          ~machine:(machine "dunnington")
          (Kernel.small_program k)
      in
      let r = Verify.check c in
      Alcotest.(check (list string))
        (k.Kernel.name ^ " cluster-mode clean") []
        (List.map (fun i -> i.Verify.invariant ^ ": " ^ i.Verify.detail)
           r.Verify.issues);
      check_bool "edges seen" true (r.Verify.edges_checked > 0))
    [ Suite.sp; Suite.facesim ]

(* --- hand-built plans ---------------------------------------------------- *)

(* A 4096-point dependence-free nest compiled under Base, whose plan
   the tests below replace by hand. *)
let line_program =
  lazy
    (let prog =
       Ctam_frontend.Lower.compile
         "program line;\n\
          double A[4096];\n\
          double B[4096];\n\
          parallel for (i = 0; i <= 4095; i++)\n\
         \  A[i] = A[i] + B[i];\n"
     in
     Mapping.compile Mapping.Base ~machine:(machine "harpertown") prog)

(* [c] with its one nest's plan replaced by [groups] on core 0, each a
   list of points. *)
let with_groups (c : Mapping.compiled) groups =
  let plan = List.hd c.Mapping.plans in
  let nest = plan.Mapping.plan_nest in
  let enc = Ctam_poly.Iterset.encoder_of_domain nest.Ctam_ir.Nest.domain in
  let group id points =
    {
      Ctam_blocks.Iter_group.id;
      tag = Ctam_blocks.Bitset.create 1;
      iters =
        Ctam_poly.Iterset.of_list enc (List.map (fun i -> [| i |]) points);
    }
  in
  let plan = { plan with Mapping.plan_rounds = [ [| List.mapi group groups |] ] } in
  ({ c with Mapping.plans = [ plan ] }, nest.Ctam_ir.Nest.name)

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_overlap_and_hole_texts () =
  let c, nest =
    with_groups (Lazy.force line_program) [ range 0 9; range 5 14 ]
  in
  Alcotest.(check (list string))
    "issues"
    [
      Printf.sprintf
        "disjointness: nest %s: group 1 repeats 5 iteration(s) already \
         assigned elsewhere, e.g. (5)"
        nest;
      Printf.sprintf
        "coverage: nest %s: 4081 of 4096 iteration(s) are never assigned to \
         any group, e.g. (15)"
        nest;
    ]
    (List.map
       (fun i -> i.Verify.invariant ^ ": " ^ i.Verify.detail)
       (Verify.check c).Verify.issues)

(* Checking a plan allocates a bounded amount per group: 4096
   single-point groups cost at most [budget] words each beyond one
   group holding the same points.  A check that re-merges every point
   seen so far per group allocates thousands of words per group here,
   mostly in arrays too large for the minor heap, so the count is of
   all allocated bytes. *)
let test_plan_check_linear () =
  let base = Lazy.force line_program in
  let words groups =
    let c, _ = with_groups base groups in
    let b0 = Gc.allocated_bytes () in
    let r = Verify.check c in
    let w = (Gc.allocated_bytes () -. b0) /. float (Sys.word_size / 8) in
    check_bool "clean" true (Verify.ok r);
    w
  in
  let one = words [ range 0 4095 ] in
  let many = words (List.map (fun i -> [ i ]) (range 0 4095)) in
  let per_group = (many -. one) /. 4095. in
  let budget = 1000. in
  check_bool
    (Printf.sprintf "%.0f words per group within %.0f" per_group budget)
    true (per_group <= budget)

(* --- negative: injected corruption must be caught --------------------- *)

let test_inject_bad_coverage () =
  List.iter
    (fun k ->
      let c = compile k in
      let c, what = Inject.apply Inject.Bad_coverage c in
      check_bool "describes itself" true
        (Astring.String.is_infix ~affix:"dropped" what);
      let r = Verify.check c in
      check_bool "rejected" false (Verify.ok r);
      check_bool "as a coverage hole" true (has_invariant "coverage" r);
      (* The diagnostic must name the nest and count the hole. *)
      check_bool "diagnostic is concrete" true
        (List.exists
           (fun i ->
             i.Verify.invariant = "coverage"
             && Astring.String.is_infix ~affix:"never assigned" i.Verify.detail)
           r.Verify.issues))
    [ Suite.cg; Suite.sp ]

let test_inject_bad_order () =
  (* sp has dependences: reversing its rounds must trip the dependence
     check. *)
  let c, what = Inject.apply Inject.Bad_order (compile Suite.sp) in
  check_bool "reversed rounds" true
    (Astring.String.is_infix ~affix:"reversed" what);
  let r = Verify.check c in
  check_bool "rejected" false (Verify.ok r);
  check_bool "as a dependence violation" true (has_invariant "dependence" r);
  check_bool "diagnostic says backwards" true
    (List.exists
       (fun i -> Astring.String.is_infix ~affix:"backwards" i.Verify.detail)
       r.Verify.issues);
  (* cg is dependence-free: the fallback plants a cross-core race. *)
  let c, what = Inject.apply Inject.Bad_order (compile Suite.cg) in
  check_bool "planted race" true
    (Astring.String.is_infix ~affix:"race" what);
  let r = Verify.check c in
  check_bool "rejected too" false (Verify.ok r);
  check_bool "as a race" true (has_invariant "race" r)

let test_inject_of_string () =
  check_bool "bad-coverage" true
    (Inject.of_string "bad-coverage" = Ok Inject.Bad_coverage);
  check_bool "bad-order" true
    (Inject.of_string "bad-order" = Ok Inject.Bad_order);
  check_bool "round-trips" true
    (List.for_all
       (fun c -> Inject.of_string (Inject.to_string c) = Ok c)
       Inject.all);
  check_bool "unknown rejected" true
    (match Inject.of_string "bad-vibes" with Error _ -> true | Ok _ -> false)

(* --- race detector on hand-built phases -------------------------------- *)

let w addr = Engine.encode_access ~addr ~write:true
let r addr = Engine.encode_access ~addr ~write:false

let replay phases =
  let det = Race.create () in
  Race.replay det phases;
  det

let test_race_write_write () =
  let det = replay [ [| [| w 8 |]; [| w 8 |] |] ] in
  check_int "one conflict" 1 (Race.num_conflicts det);
  match Race.conflicts det with
  | [ c ] ->
      check_int "phase" 0 c.Race.c_phase;
      check_int "addr" 8 c.Race.c_addr;
      check_bool "is a write" true c.Race.c_write;
      check_bool "between cores 0 and 1" true
        ((c.Race.c_core, c.Race.c_other) = (1, 0)
        || (c.Race.c_core, c.Race.c_other) = (0, 1))
  | _ -> Alcotest.fail "expected exactly one conflict"

let test_race_read_write () =
  (* A read racing an earlier other-core write is flagged; the
     symmetric write-after-read as well. *)
  check_int "read after write" 1
    (Race.num_conflicts (replay [ [| [| w 4 |]; [| r 4 |] |] ]));
  check_int "write after read" 1
    (Race.num_conflicts (replay [ [| [| r 4 |]; [| w 4 |] |] ]))

let test_race_benign () =
  (* Shared reads are fine. *)
  check_int "read sharing" 0
    (Race.num_conflicts (replay [ [| [| r 4; r 8 |]; [| r 4; r 8 |] |] ]));
  (* Same-core rewrites are fine. *)
  check_int "private writes" 0
    (Race.num_conflicts (replay [ [| [| w 4; w 4; r 4 |]; [| w 8 |] |] ]));
  (* A barrier separates the phases: write then other-core write is
     ordered, not racing. *)
  check_int "phase separation" 0
    (Race.num_conflicts (replay [ [| [| w 4 |]; [||] |]; [| [||]; [| w 4 |] |] ]))

let test_race_probe_counts () =
  (* The probe view feeds the same detector, and the total count keeps
     climbing past the detail cap. *)
  let det = Race.create () in
  let probe = Race.probe det in
  probe.Probe.on_phase_start ~phase:0;
  for i = 0 to 99 do
    probe.Probe.on_access ~core:0 ~addr:i ~line:0 ~write:true;
    probe.Probe.on_access ~core:1 ~addr:i ~line:0 ~write:true
  done;
  check_int "all counted" 100 (Race.num_conflicts det);
  check_bool "details capped" true (List.length (Race.conflicts det) <= 100);
  check_bool "details nonempty" true (Race.conflicts det <> [])

(* --- mapping-level race check ------------------------------------------ *)

let test_check_flags_planted_race () =
  let c = compile Suite.equake in
  match c.Mapping.phases with
  | [] -> Alcotest.fail "no phases"
  | phase :: rest ->
      let clash = w 12 in
      let phase =
        Array.mapi
          (fun core s ->
            if core < 2 then
              Engine.dense (Array.append (Engine.force_stream s) [| clash |])
            else s)
          phase
      in
      let r = Verify.check { c with Mapping.phases = phase :: rest } in
      check_bool "race reported" true (has_invariant "race" r)

(* --- run-report wiring -------------------------------------------------- *)

let test_run_report_verify () =
  let p =
    Ctam_exp.Run_report.profile ~check:true Mapping.Combined
      ~machine:(machine "nehalem")
      (Kernel.small_program Suite.cg)
  in
  (match p.Ctam_exp.Run_report.verify with
  | None -> Alcotest.fail "verify missing from profile"
  | Some r -> check_bool "clean" true (Verify.ok r));
  match Ctam_util.Json.member "verify" p.Ctam_exp.Run_report.report with
  | Some v ->
      check_bool "json ok flag" true
        (Ctam_util.Json.to_bool (Ctam_util.Json.member_exn "ok" v))
  | None -> Alcotest.fail "verify missing from JSON report"

(* --- CLI exit codes ----------------------------------------------------- *)

let test_cli_exit_codes () =
  check_bool "clean mapping exits 0 and says verified" true
    (Astring.String.is_infix ~affix:"mapping verified"
       (Harness.out Harness.ctamap
          [ "check"; "cg"; "-m"; "nehalem"; "--scale"; "64" ]));
  List.iter
    (fun mode ->
      ignore
        (Harness.refused ~affix:"mapping INVALID" Harness.ctamap
           [ "check"; "sp"; "-m"; "dunnington"; "--scale"; "64"; "--inject"; mode ]))
    [ "bad-coverage"; "bad-order" ]

let test_cli_json () =
  Harness.with_temp_dir @@ fun dir ->
  let json = Filename.concat dir "check.json" in
  ignore
    (Harness.out Harness.ctamap
       [ "check"; "cg"; "-m"; "nehalem"; "--scale"; "64"; "--json"; json ]);
  let j = Harness.read_json json in
  let checks = Ctam_util.Json.(to_list (member_exn "checks" j)) in
  check_int "one scheme" 1 (List.length checks);
  let report = Ctam_util.Json.member_exn "report" (List.hd checks) in
  check_bool "ok" true Ctam_util.Json.(to_bool (member_exn "ok" report));
  check_int "no issues" 0
    (List.length Ctam_util.Json.(to_list (member_exn "issues" report)))

(* [ctamap check --all-schemes] passes a dependence-free and a
   dependence-carrying workload on each preset machine. *)
let test_cli_suite_clean () =
  List.iter
    (fun m ->
      List.iter
        (fun w ->
          ignore
            (Harness.out Harness.ctamap
               [ "check"; w; "-m"; m; "--scale"; "64"; "--all-schemes" ]))
        [ "cg"; "sp" ])
    [ "harpertown"; "nehalem"; "dunnington" ]

let () =
  Alcotest.run "verify"
    [
      ( "topology",
        [ Alcotest.test_case "presets well-formed" `Quick test_topology_presets ]
      );
      ( "mappings",
        [
          Alcotest.test_case "suite x machines clean" `Slow test_suite_combined;
          Alcotest.test_case "dependent kernels, all schemes" `Quick
            test_dependent_kernels_all_schemes;
          Alcotest.test_case "cluster dependence mode" `Quick
            test_cluster_mode;
        ] );
      ( "plans",
        [
          Alcotest.test_case "overlap and hole texts" `Quick
            test_overlap_and_hole_texts;
          Alcotest.test_case "plan check is linear" `Quick
            test_plan_check_linear;
        ] );
      ( "inject",
        [
          Alcotest.test_case "bad-coverage caught" `Quick
            test_inject_bad_coverage;
          Alcotest.test_case "bad-order caught" `Quick test_inject_bad_order;
          Alcotest.test_case "mode names" `Quick test_inject_of_string;
        ] );
      ( "race",
        [
          Alcotest.test_case "write-write" `Quick test_race_write_write;
          Alcotest.test_case "read-write" `Quick test_race_read_write;
          Alcotest.test_case "benign patterns" `Quick test_race_benign;
          Alcotest.test_case "probe + cap" `Quick test_race_probe_counts;
          Alcotest.test_case "planted race in mapping" `Quick
            test_check_flags_planted_race;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "run-report verify member" `Quick
            test_run_report_verify;
          Alcotest.test_case "cli exit codes" `Quick test_cli_exit_codes;
          Alcotest.test_case "cli json" `Quick test_cli_json;
          Alcotest.test_case "cli suite x machines, all schemes" `Quick
            test_cli_suite_clean;
        ] );
    ]
