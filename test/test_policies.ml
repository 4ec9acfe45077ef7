(* Tests for the pluggable replacement-policy layer: the policy data
   type and spec parsing, the packed-state policy machines themselves
   (property-tested through the POLICY signature Setassoc exposes),
   cache behavior under each policy, the LRU-as-policy bit-identity
   differential against the seed reference engine (statistics AND
   probe event order), and policy sensitivity of every content-hash
   key (hierarchy config, tune cache, plan cache, topology text). *)

open Ctam_arch
open Ctam_cachesim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Policy: names, specs, hashes ------------------------------------ *)

let test_policy_strings () =
  List.iter
    (fun p ->
      check_bool
        (Policy.to_string p ^ " round-trips")
        true
        (Policy.of_string (Policy.to_string p) = Ok p))
    [
      Policy.Lru; Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru;
      Policy.Random 7; Policy.Random Policy.default_random_seed;
    ];
  check_bool "tree-plru alias" true (Policy.of_string "tree-plru" = Ok Policy.Plru);
  check_bool "bare random has the default seed" true
    (Policy.of_string "random" = Ok (Policy.Random Policy.default_random_seed));
  check_bool "unknown rejected" true
    (match Policy.of_string "bogus" with Error _ -> true | Ok _ -> false);
  check_bool "bad seed rejected" true
    (match Policy.of_string "random:x" with Error _ -> true | Ok _ -> false)

let test_policy_spec () =
  check_bool "bare name covers all levels" true
    (Policy.parse_spec "plru" = Ok [ (None, Policy.Plru) ]);
  check_bool "per-level bindings" true
    (Policy.parse_spec "L1=plru,L2=qlru"
    = Ok [ (Some 1, Policy.Plru); (Some 2, Policy.Qlru) ]);
  check_bool "bare level numbers accepted" true
    (Policy.parse_spec "2=mru" = Ok [ (Some 2, Policy.Mru) ]);
  check_bool "empty spec rejected" true
    (match Policy.parse_spec "" with Error _ -> true | Ok _ -> false);
  check_bool "junk binding rejected" true
    (match Policy.parse_spec "L1=" with Error _ -> true | Ok _ -> false);
  (* Later bindings win when applied to a topology. *)
  let m = Machines.dunnington ~scale:16 () in
  let bindings =
    match Policy.parse_spec "lru,L1=plru,L1=qlru" with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let m' = Topology.with_policy_spec bindings m in
  List.iter
    (fun (c : Topology.cache_params) ->
      let expect = if c.Topology.level = 1 then Policy.Qlru else Policy.Lru in
      check_bool
        (Printf.sprintf "L%d policy" c.Topology.level)
        true
        (Policy.equal c.Topology.policy expect))
    (Topology.caches m')

let test_policy_hash_distinct () =
  let ps =
    [
      Policy.Lru; Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru;
      Policy.Random 1; Policy.Random 2;
    ]
  in
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if i < j then
            check_bool
              (Printf.sprintf "hash %s <> %s" (Policy.to_string p)
                 (Policy.to_string q))
              true
              (Policy.hash p <> Policy.hash q))
        ps)
    ps

(* --- the policy state machines, through the POLICY signature --------- *)

(* Drive a policy module through a random touch/fill/victim trace and
   check its structural invariants at every step. *)
let drive (module P : Setassoc.POLICY) ~assoc ops =
  List.fold_left
    (fun state op ->
      match op with
      | `Hit w -> P.on_hit ~assoc ~state ~way:(w mod assoc)
      | `Fill w -> P.on_fill ~assoc ~state ~way:(w mod assoc)
      | `Victim ->
          let v, st = P.victim ~assoc ~state in
          Alcotest.(check bool) "victim in range" true (v >= 0 && v < assoc);
          P.on_fill ~assoc ~state:st ~way:v)
    (P.init ~assoc ~set:0) ops

let arb_ops =
  QCheck.(
    pair (int_range 2 16)
      (list_of_size (Gen.int_range 0 120)
         (oneof
            [
              map (fun w -> `Hit w) (int_range 0 15);
              map (fun w -> `Fill w) (int_range 0 15);
              always `Victim;
            ])))

let prop_plru_victim_avoids_touched =
  (* Tree-PLRU's defining guarantee: immediately after touching a way,
     that way is not the victim. *)
  QCheck.Test.make ~name:"plru victim never the just-touched way" ~count:500
    arb_ops (fun (assoc, ops) ->
      let state = drive (module Setassoc.Plru) ~assoc ops in
      List.for_all
        (fun w ->
          let st = Setassoc.Plru.on_hit ~assoc ~state ~way:w in
          fst (Setassoc.Plru.victim ~assoc ~state:st) <> w)
        (List.init assoc Fun.id))

let prop_qlru_ages_bounded =
  let age st w = (st lsr (2 * w)) land 3 in
  QCheck.Test.make ~name:"qlru ages stay in [0,3]; victim has age 3"
    ~count:500 arb_ops (fun (assoc, ops) ->
      let state = drive (module Setassoc.Qlru) ~assoc ops in
      List.for_all (fun w -> age state w <= 3) (List.init assoc Fun.id)
      &&
      let v, st = Setassoc.Qlru.victim ~assoc ~state in
      age st v = 3)

let prop_mru_victim_bit_clear =
  QCheck.Test.make ~name:"mru victim's used bit is clear" ~count:500 arb_ops
    (fun (assoc, ops) ->
      let state = drive (module Setassoc.Mru) ~assoc ops in
      (* The state never saturates: at least one clear bit remains. *)
      state land ((1 lsl assoc) - 1) <> (1 lsl assoc) - 1
      &&
      let v, st = Setassoc.Mru.victim ~assoc ~state in
      (st lsr v) land 1 = 0 || v = assoc - 1)

let prop_random_deterministic =
  QCheck.Test.make ~name:"random policy is a pure function of seed x set"
    ~count:200
    QCheck.(pair (int_range 0 1000) (pair (int_range 2 16) small_nat))
    (fun (seed, (assoc, steps)) ->
      let run () =
        let (module P) = Setassoc.random_policy ~seed in
        let state = ref (P.init ~assoc ~set:3) in
        let vs = ref [] in
        for _ = 0 to steps do
          let v, st = P.victim ~assoc ~state:!state in
          vs := v :: !vs;
          state := st
        done;
        !vs
      in
      run () = run ())

let test_fifo_insertion_order () =
  (* FIFO evicts in insertion order, and hits do not refresh. *)
  let c = Setassoc.create ~policy:Policy.Fifo ~sets:1 ~assoc:4 () in
  List.iter (fun l -> ignore (Setassoc.insert c l)) [ 10; 11; 12; 13 ];
  check_bool "hit does not refresh" true (Setassoc.access c 10);
  Alcotest.(check (option int)) "first in, first out" (Some 10)
    (Setassoc.insert c 14);
  Alcotest.(check (option int)) "then the second" (Some 11)
    (Setassoc.insert c 15);
  check_bool "later line still resident" true (Setassoc.contains c 13)

let test_policy_cache_behavior () =
  (* Generic per-policy contract at the Setassoc level: empty ways fill
     without eviction, a hole left by invalidate is reused, capacity
     is never exceeded, and snapshot/restore round-trips the packed
     policy state (same subsequent victim decisions). *)
  List.iter
    (fun policy ->
      let name = Policy.to_string policy in
      let c = Setassoc.create ~policy ~sets:2 ~assoc:4 () in
      check_bool (name ^ " reports its policy") true
        (Policy.equal (Setassoc.policy c) policy);
      for l = 0 to 7 do
        Alcotest.(check (option int))
          (Printf.sprintf "%s cold fill %d" name l)
          None (Setassoc.insert c l)
      done;
      check_bool (name ^ " full") true
        (List.length (Setassoc.resident c) = 8);
      ignore (Setassoc.invalidate c 4);
      Alcotest.(check (option int)) (name ^ " hole reused") None
        (Setassoc.insert c 8);
      (* Snapshot now; replay the same future twice. *)
      let image = Setassoc.snapshot_lines c in
      let future cache =
        let evs = ref [] in
        for l = 9 to 40 do
          match Setassoc.insert cache (l * 2) with
          | Some v -> evs := v :: !evs
          | None -> ()
        done;
        !evs
      in
      let first = future c in
      Setassoc.restore_lines c image;
      let second = future c in
      check_bool (name ^ " snapshot/restore replays evictions") true
        (first = second))
    [
      Policy.Lru; Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru;
      Policy.Random 5;
    ]

let test_assoc_caps () =
  Alcotest.check_raises "plru cap"
    (Invalid_argument "Setassoc.create: plru supports at most 32 ways")
    (fun () ->
      ignore (Setassoc.create ~policy:Policy.Plru ~sets:1 ~assoc:33 ()));
  Alcotest.check_raises "qlru cap"
    (Invalid_argument "Setassoc.create: qlru supports at most 31 ways")
    (fun () ->
      ignore (Setassoc.create ~policy:Policy.Qlru ~sets:1 ~assoc:32 ()))

(* --- LRU-as-policy bit-identity differential -------------------------- *)

(* Record every probe event as one string, so two runs can be compared
   for identical event ORDER, not just identical counts. *)
let recording_probe buf =
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  {
    Probe.on_access =
      (fun ~core ~addr ~line ~write -> p "A%d,%d,%d,%b;" core addr line write);
    on_level =
      (fun ~core ~level ~set ~line ~hit ->
        p "L%d,%d,%d,%d,%b;" core level set line hit);
    on_mem = (fun ~core ~line -> p "M%d,%d;" core line);
    on_evict = (fun ~core ~level ~line -> p "E%d,%d,%d;" core level line);
    on_invalidate =
      (fun ~core ~level ~line -> p "I%d,%d,%d;" core level line);
    on_retire = (fun ~core ~cycles -> p "R%d,%d;" core cycles);
    on_phase_start = (fun ~phase -> p "Ps%d;" phase);
    on_phase_end = (fun ~phase ~cycles -> p "Pe%d,%d;" phase cycles);
    on_barrier_enter = (fun ~phase ~cycles -> p "Be%d,%d;" phase cycles);
    on_barrier_exit = (fun ~phase ~cycles -> p "Bx%d,%d;" phase cycles);
  }

let test_lru_policy_identical_to_seed () =
  (* End to end over the real mapper: for each machine, a compiled
     workload simulated on (a) the machine as-is (seed LRU path),
     (b) the machine with Lru bound explicitly through the policy
     layer, and (c) the seed reference engine — statistics and the
     full probe event streams must be identical. *)
  let prog =
    Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.galgel
  in
  List.iter
    (fun mname ->
      let machine = Machines.by_name ~scale:64 mname in
      let compiled =
        Ctam_core.Mapping.compile Ctam_core.Mapping.Topology_aware ~machine
          prog
      in
      let phases = Ctam_core.Mapping.forced_phases compiled in
      let run topo engine =
        let buf = Buffer.create 4096 in
        let h = Hierarchy.create ~probe:(recording_probe buf) topo in
        let stats = engine h phases in
        (stats, Buffer.contents buf)
      in
      let seed_stats, seed_events = run machine Engine.run in
      let policy_topo =
        Topology.with_policy_spec [ (None, Policy.Lru) ] machine
      in
      let pol_stats, pol_events = run policy_topo Engine.run in
      let ref_stats, ref_events = run policy_topo Engine.run_reference in
      check_bool (mname ^ ": stats identical (policy)") true
        (seed_stats = pol_stats);
      check_string (mname ^ ": event order identical (policy)") seed_events
        pol_events;
      check_bool (mname ^ ": stats identical (reference)") true
        (seed_stats = ref_stats);
      check_string (mname ^ ": event order identical (reference)") seed_events
        ref_events)
    [ "harpertown"; "nehalem"; "dunnington" ]

let prop_policies_same_cold_misses =
  (* Whatever the victims, replacement policy cannot change WHAT is
     cached on a single pass over distinct lines that fit: every
     policy produces identical stats when no set ever overflows. *)
  QCheck.Test.make ~name:"all policies agree below capacity" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 127))
    (fun lines ->
      let stats policy =
        let c = Setassoc.create ~policy ~sets:32 ~assoc:4 () in
        List.iter
          (fun l -> if not (Setassoc.access c l) then ignore (Setassoc.insert c l))
          lines;
        (Setassoc.hits c, Setassoc.misses c)
      in
      let reference = stats Policy.Lru in
      List.for_all
        (fun p -> stats p = reference)
        [ Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru; Policy.Random 3 ])

(* --- Setassoc against the naive policy models --------------------------- *)

(* Every (sets, assoc) pair of the presets, at their stated sizes and
   at capacity divisor 64 (down to one set). *)
let preset_geometries =
  List.sort_uniq compare
    (List.concat_map
       (fun scale ->
         List.concat_map
           (fun name ->
             List.map
               (fun (p : Topology.cache_params) ->
                 (p.size_bytes / (p.assoc * p.line), p.assoc))
               (Topology.caches (Machines.by_name ~scale name)))
           [ "harpertown"; "nehalem"; "dunnington"; "arch-i"; "arch-ii" ])
       [ 1; 64 ])

(* An operation names a line by a set pick (0-3) and a tag; a cache
   maps them to [pick mod sets + sets * (tag mod (1.5 assoc + 1))], so
   each set sees about half again as many lines as it holds. *)
type oracle_op =
  | Touch of int * int  (* [access], then [fill] on a miss *)
  | Insert of int * int
  | Invalidate of int * int  (* the hole a coherence sweep punches *)

let oracle_ops_gen =
  let open QCheck.Gen in
  let line k = map2 k (int_range 0 3) (int_range 0 63) in
  list_size (int_range 0 300)
    (frequency
       [
         (6, line (fun s t -> Touch (s, t)));
         (2, line (fun s t -> Insert (s, t)));
         (2, line (fun s t -> Invalidate (s, t)));
       ])

let oracle_policies =
  [ Policy.Fifo; Policy.Plru; Policy.Qlru; Policy.Mru; Policy.Random 42 ]

(* Run one policy on one geometry; true when every result agrees. *)
let agrees_with_oracle policy (sets, assoc) ops =
  let c = Setassoc.create ~policy ~sets ~assoc () in
  let m = Policy_oracle.create ~policy ~sets ~assoc in
  let line s t = (s mod sets) + (sets * (t mod (assoc + (assoc / 2) + 1))) in
  let lines = Hashtbl.create 64 in
  let same_op op =
    let l =
      match op with Touch (s, t) | Insert (s, t) | Invalidate (s, t) -> line s t
    in
    Hashtbl.replace lines l ();
    (match op with
    | Touch _ ->
        let hit = Setassoc.access c l in
        hit = Policy_oracle.access m l
        && (hit || Setassoc.fill c l = Policy_oracle.fill m l)
    | Insert _ -> Setassoc.insert c l = Policy_oracle.insert m l
    | Invalidate _ -> Setassoc.invalidate c l = Policy_oracle.invalidate m l)
    && Setassoc.contains c l = Policy_oracle.contains m l
  in
  (* Only the stream's lines can be resident, so these are all of them. *)
  let resident () =
    List.sort compare
      (Hashtbl.fold
         (fun l () acc -> if Setassoc.contains c l then l :: acc else acc)
         lines [])
  in
  List.for_all same_op ops
  && Setassoc.hits c = m.Policy_oracle.hits
  && Setassoc.misses c = m.Policy_oracle.misses
  && resident () = Policy_oracle.resident m

let prop_setassoc_matches_oracles =
  QCheck.Test.make ~name:"Setassoc matches the naive policy models" ~count:60
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d operations>" (List.length ops))
       oracle_ops_gen)
    (fun ops ->
      List.for_all
        (fun policy ->
          List.for_all
            (fun geometry ->
              agrees_with_oracle policy geometry ops
              || QCheck.Test.fail_reportf "%s disagrees on %d sets x %d ways"
                   (Policy.to_string policy) (fst geometry) (snd geometry))
            preset_geometries)
        oracle_policies)

(* --- key sensitivity --------------------------------------------------- *)

let test_config_hash_policy_sensitive () =
  let m = Machines.dunnington ~scale:16 () in
  let h p =
    Hierarchy.config_hash
      (Hierarchy.create (Topology.with_policy_spec [ (None, p) ] m))
  in
  check_bool "explicit lru = default" true
    (h Policy.Lru = Hierarchy.config_hash (Hierarchy.create m));
  check_bool "plru differs" true (h Policy.Plru <> h Policy.Lru);
  check_bool "seeds differ" true (h (Policy.Random 1) <> h (Policy.Random 2))

let test_tune_key_policy_sensitive () =
  let m = Machines.dunnington ~scale:16 () in
  let frag p =
    Ctam_tune.Cache.topology_fragment
      (Topology.with_policy_spec [ (None, p) ] m)
  in
  (* Warm-cache preservation: binding the default policy explicitly
     must keep the pre-policy key text byte-identical. *)
  check_string "lru fragment unchanged"
    (Ctam_tune.Cache.topology_fragment m)
    (frag Policy.Lru);
  check_bool "qlru fragment differs" true (frag Policy.Qlru <> frag Policy.Lru)

let test_plan_key_policy_sensitive () =
  (* Satellite: the same serve request with two different policy specs
     must produce two different plan-cache keys (and storing both in
     one cache yields two distinct entries). *)
  let module J = Ctam_util.Json in
  let req policy =
    J.Obj
      ([
         ("op", J.String "run");
         ("program", J.String "cg");
         ("machine", J.String "dunnington");
         ("scale", J.Int 64);
       ]
      @ match policy with None -> [] | Some s -> [ ("policy", J.String s) ])
  in
  let key p =
    match Ctam_serve.Request.parse (req p) with
    | Ok r -> Ctam_serve.Request.key r
    | Error e -> Alcotest.fail e
  in
  let k_default = key None
  and k_lru = key (Some "lru")
  and k_plru = key (Some "plru") in
  check_string "explicit lru keeps the warm key" k_default k_lru;
  check_bool "plru gets its own key" true (k_plru <> k_default);
  let c = Ctam_serve.Plan_cache.create ~max_entries:8 () in
  Ctam_serve.Plan_cache.add c k_default (J.Obj [ ("v", J.Int 1) ]);
  Ctam_serve.Plan_cache.add c k_plru (J.Obj [ ("v", J.Int 2) ]);
  check_int "two policies, two entries" 2
    (List.length (Ctam_serve.Plan_cache.keys_hot_to_cold c))

let test_topo_text_roundtrip () =
  let m =
    Topology.with_policy_spec
      [ (Some 1, Policy.Plru); (Some 2, Policy.Random 9) ]
      (Machines.dunnington ~scale:16 ())
  in
  let text = Topo_parse.to_text m in
  check_bool "policy rendered" true
    (Astring.String.is_infix ~affix:"(policy plru)" text);
  check_bool "seed rendered" true
    (Astring.String.is_infix ~affix:"(policy random:9)" text);
  let m' = Topo_parse.parse text in
  List.iter2
    (fun (a : Topology.cache_params) (b : Topology.cache_params) ->
      check_bool
        (Printf.sprintf "L%d policy survives" a.Topology.level)
        true
        (Policy.equal a.Topology.policy b.Topology.policy))
    (Topology.caches m) (Topology.caches m');
  (* The default policy stays invisible, so pre-policy topology files
     render byte-identically. *)
  let plain = Topo_parse.to_text (Machines.dunnington ~scale:16 ()) in
  check_bool "lru not rendered" true
    (not (Astring.String.is_infix ~affix:"policy" plain))

(* [bench/main.exe policy-sweep --quick] exits non-zero when LRU as a
   policy diverges from the reference engine or a hit-rate trend
   breaks. *)
let test_bench_policy_sweep () =
  ignore (Harness.out Harness.bench [ "policy-sweep"; "--quick" ])

(* A bad --policy spec is refused before any work: a bogus name on
   [simtrace], an out-of-range level on [run]. *)
let test_cli_bad_specs () =
  Harness.with_temp_dir @@ fun dir ->
  let trace = Filename.concat dir "t.trace" in
  Harness.write_file trace " L 0x1000,8\n";
  List.iter
    (fun args ->
      check_bool (String.concat " " args ^ " refused") true
        ((Harness.run Harness.ctamap args).Harness.code <> 0))
    [
      [ "simtrace"; trace; "-m"; "dunnington"; "--policy"; "bogus" ];
      [ "run"; "cg"; "-m"; "dunnington"; "--policy"; "L9=plru" ];
    ]

let () =
  Alcotest.run "policies"
    [
      ( "policy type",
        [
          Alcotest.test_case "strings" `Quick test_policy_strings;
          Alcotest.test_case "spec" `Quick test_policy_spec;
          Alcotest.test_case "hash distinct" `Quick test_policy_hash_distinct;
        ] );
      ( "state machines",
        [
          QCheck_alcotest.to_alcotest prop_plru_victim_avoids_touched;
          QCheck_alcotest.to_alcotest prop_qlru_ages_bounded;
          QCheck_alcotest.to_alcotest prop_mru_victim_bit_clear;
          QCheck_alcotest.to_alcotest prop_random_deterministic;
          Alcotest.test_case "fifo order" `Quick test_fifo_insertion_order;
          Alcotest.test_case "cache behavior" `Quick test_policy_cache_behavior;
          Alcotest.test_case "assoc caps" `Quick test_assoc_caps;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lru == seed engine (stats + event order)"
            `Quick test_lru_policy_identical_to_seed;
          QCheck_alcotest.to_alcotest prop_policies_same_cold_misses;
          QCheck_alcotest.to_alcotest prop_setassoc_matches_oracles;
        ] );
      ( "key sensitivity",
        [
          Alcotest.test_case "config hash" `Quick
            test_config_hash_policy_sensitive;
          Alcotest.test_case "tune key" `Quick test_tune_key_policy_sensitive;
          Alcotest.test_case "plan key" `Quick test_plan_key_policy_sensitive;
          Alcotest.test_case "topology text" `Quick test_topo_text_roundtrip;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bench policy-sweep" `Quick test_bench_policy_sweep;
          Alcotest.test_case "bad --policy specs" `Quick test_cli_bad_specs;
        ] );
    ]
