(* Tests for cache topologies and the machine presets of Table 1 /
   Figures 1 and 12. *)

open Ctam_arch

let check_int = Alcotest.(check int)
let _check_bool = Alcotest.(check bool)
let check_opt_int = Alcotest.(check (option int))

let test_harpertown_shape () =
  let t = Machines.harpertown () in
  check_int "cores" 8 t.Topology.num_cores;
  Alcotest.(check (list int)) "levels" [ 1; 2 ] (Topology.levels t);
  (* Four last-level caches: memory is the conceptual root. *)
  check_int "roots" 4 (List.length t.Topology.roots);
  (* Cores 0 and 1 share an L2; 0 and 2 share nothing on chip. *)
  check_opt_int "pair affinity" (Some 2) (Topology.affinity_level t 0 1);
  check_opt_int "no affinity" None (Topology.affinity_level t 0 2)

let test_nehalem_shape () =
  let t = Machines.nehalem () in
  check_int "cores" 8 t.Topology.num_cores;
  Alcotest.(check (list int)) "levels" [ 1; 2; 3 ] (Topology.levels t);
  check_int "roots" 2 (List.length t.Topology.roots);
  (* Private L2: two same-socket cores only share the L3. *)
  check_opt_int "socket affinity" (Some 3) (Topology.affinity_level t 0 1);
  check_opt_int "cross socket" None (Topology.affinity_level t 0 4);
  (* First shared level is the L3. *)
  check_opt_int "first shared" (Some 3) (Topology.first_shared_level t)

let test_dunnington_shape () =
  let t = Machines.dunnington () in
  check_int "cores" 12 t.Topology.num_cores;
  check_opt_int "pair shares L2" (Some 2) (Topology.affinity_level t 0 1);
  check_opt_int "socket shares L3" (Some 3) (Topology.affinity_level t 0 2);
  check_opt_int "cross socket" None (Topology.affinity_level t 0 6);
  check_opt_int "first shared" (Some 2) (Topology.first_shared_level t);
  (* Sharing domains at L2 are the six pairs. *)
  Alcotest.(check (list (list int)))
    "L2 domains"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ]; [ 8; 9 ]; [ 10; 11 ] ]
    (Topology.sharing_domains t 2)

let test_table1_parameters () =
  (* Spot-check Table 1 numbers at scale 1. *)
  let h = Machines.harpertown () in
  let l1 = List.hd (Topology.path_of_core h 0) in
  check_int "L1 32KB" (32 * 1024) l1.Topology.size_bytes;
  check_int "L1 8-way" 8 l1.Topology.assoc;
  check_int "L1 latency 3" 3 l1.Topology.latency;
  let l2 = List.nth (Topology.path_of_core h 0) 1 in
  check_int "L2 6MB" (6 * 1024 * 1024) l2.Topology.size_bytes;
  check_int "L2 24-way" 24 l2.Topology.assoc;
  let d = Machines.dunnington () in
  let l3 = List.nth (Topology.path_of_core d 0) 2 in
  check_int "L3 12MB" (12 * 1024 * 1024) l3.Topology.size_bytes;
  check_int "dunnington L1 latency 4" 4
    (List.hd (Topology.path_of_core d 0)).Topology.latency

let test_scaling () =
  let t = Machines.dunnington ~scale:16 () in
  let l1 = List.hd (Topology.path_of_core t 0) in
  check_int "L1 scaled" (2 * 1024) l1.Topology.size_bytes;
  (* Latency and associativity never scale. *)
  check_int "latency same" 4 l1.Topology.latency;
  check_int "assoc same" 8 l1.Topology.assoc;
  (* Capacity stays a multiple of one set. *)
  check_int "set multiple" 0
    (l1.Topology.size_bytes mod (l1.Topology.assoc * l1.Topology.line))

let test_halve_caches () =
  let t = Machines.dunnington () in
  let h = Machines.halve_caches t in
  check_int "L1 halved" (16 * 1024)
    (List.hd (Topology.path_of_core h 0)).Topology.size_bytes;
  check_int "same cores" 12 h.Topology.num_cores

let test_scale_cores () =
  let t18 = Machines.dunnington_scaled_cores ~num_cores:18 () in
  check_int "18 cores" 18 t18.Topology.num_cores;
  check_int "3 sockets" 3 (List.length t18.Topology.roots);
  let t24 = Machines.dunnington_scaled_cores ~num_cores:24 () in
  check_int "24 cores" 24 t24.Topology.num_cores;
  Alcotest.check_raises "not multiple of 6"
    (Invalid_argument "Machines.dunnington_scaled_cores: need a multiple of 6")
    (fun () -> ignore (Machines.dunnington_scaled_cores ~num_cores:10 ()))

let test_arch_i_ii () =
  let a1 = Machines.arch_i () in
  check_int "arch-i cores" 16 a1.Topology.num_cores;
  Alcotest.(check (list int)) "arch-i levels" [ 1; 2; 3; 4 ] (Topology.levels a1);
  let a2 = Machines.arch_ii () in
  check_int "arch-ii cores" 32 a2.Topology.num_cores;
  Alcotest.(check (list int)) "arch-ii levels" [ 1; 2; 3; 4; 5 ]
    (Topology.levels a2)

let test_truncate_levels () =
  let a1 = Machines.arch_i () in
  let t = Topology.truncate_levels 2 a1 in
  Alcotest.(check (list int)) "only L1+L2" [ 1; 2 ] (Topology.levels t);
  check_int "same cores" 16 t.Topology.num_cores;
  (* Truncating to L2 exposes the pairs as roots. *)
  check_int "roots = pairs" 8 (List.length t.Topology.roots)

let test_path_of_core () =
  let t = Machines.dunnington () in
  let path = Topology.path_of_core t 7 in
  Alcotest.(check (list int)) "levels ascending" [ 1; 2; 3 ]
    (List.map (fun p -> p.Topology.level) path);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.path_of_core") (fun () ->
      ignore (Topology.path_of_core t 12))

let test_level_capacity () =
  let t = Machines.dunnington () in
  check_int "12 L1s" (12 * 32 * 1024) (Topology.level_capacity t 1);
  check_int "6 L2s" (6 * 3 * 1024 * 1024) (Topology.level_capacity t 2);
  check_int "2 L3s" (2 * 12 * 1024 * 1024) (Topology.level_capacity t 3)

let test_validation () =
  let bad_core_ids () =
    ignore
      (Topology.make ~name:"bad" ~clock_ghz:1. ~mem_latency:100
         [
           Topology.Cache
             ( {
                 Topology.cache_name = "L1#0";
                 level = 1;
                 size_bytes = 1024;
                 assoc = 2;
                 line = 64;
                 latency = 1;
                 policy = Policy.Lru;
               },
               [ Topology.Core 1 ] );
         ])
  in
  Alcotest.check_raises "cores must be 0..n-1"
    (Invalid_argument "Topology.make: cores must be 0..n-1") bad_core_ids;
  let dup_names () =
    let c id cores =
      Topology.Cache
        ( {
            Topology.cache_name = id;
            level = 1;
            size_bytes = 1024;
            assoc = 2;
            line = 64;
            latency = 1;
            policy = Policy.Lru;
          },
          cores )
    in
    ignore
      (Topology.make ~name:"bad" ~clock_ghz:1. ~mem_latency:100
         [ c "L1" [ Topology.Core 0 ]; c "L1" [ Topology.Core 1 ] ])
  in
  Alcotest.check_raises "duplicate cache names"
    (Invalid_argument "Topology.make: duplicate cache names") dup_names

let test_by_name () =
  check_int "dunnington" 12 (Machines.by_name "Dunnington").Topology.num_cores;
  check_int "arch-i" 16 (Machines.by_name "arch-i").Topology.num_cores;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Machines.by_name "pentium"))

(* --- Topo_parse -------------------------------------------------------- *)

let sample_text =
  {|
; a two-socket toy machine
(machine "Toy" (clock 2.0) (mem 150)
  (cache "L2#0" (level 2) (size 4M) (assoc 16) (line 64) (latency 12)
    (cache "L1#0" (level 1) (size 32K) (assoc 8) (line 64) (latency 3) (core))
    (cache "L1#1" (level 1) (size 32K) (assoc 8) (line 64) (latency 3) (core)))
  (cache "L2#1" (level 2) (size 4M) (assoc 16) (line 64) (latency 12)
    (cache "L1#2" (level 1) (size 32K) (assoc 8) (line 64) (latency 3)
      (cores 2))))
|}

let test_parse_machine () =
  let t = Topo_parse.parse sample_text in
  check_int "cores" 4 t.Topology.num_cores;
  Alcotest.(check string) "name" "Toy" t.Topology.name;
  check_int "mem" 150 t.Topology.mem_latency;
  check_int "roots" 2 (List.length t.Topology.roots);
  let l1 = List.hd (Topology.path_of_core t 0) in
  check_int "L1 size suffix" (32 * 1024) l1.Topology.size_bytes;
  (* (cores 2): both auto-numbered cores share L1#2. *)
  check_opt_int "shared L1" (Some 1) (Topology.affinity_level t 2 3)

let test_parse_errors () =
  let expect_err text =
    match Topo_parse.parse text with
    | exception Topo_parse.Error _ -> ()
    | _ -> Alcotest.fail "expected parse error"
  in
  expect_err "(machine \"X\" (clock 1.0) (mem 10))";
  expect_err "(machine \"X\" (clock 1.0) (mem 10) (cache \"c\" (level 1)))";
  expect_err "(nonsense)";
  expect_err "(machine \"X\" (clock 1.0) (mem 10) (cache \"c\" (level 1) (size 1K) (assoc 2) (line 64) (latency 1) (core)";
  (* duplicate cache names are caught by Topology.make *)
  expect_err
    "(machine \"X\" (clock 1.0) (mem 10)\n     (cache \"c\" (level 1) (size 1K) (assoc 2) (line 64) (latency 1) (core))\n     (cache \"c\" (level 1) (size 1K) (assoc 2) (line 64) (latency 1) (core)))";
  (* A zero associativity or line size once raised Division_by_zero,
     and a (cores N) form expanded any N: a machine has at most 65536
     cores. *)
  let l1 ~assoc ~line ~cores =
    Printf.sprintf
      "(machine \"X\" (clock 1.0) (mem 10) (cache \"c\" (level 1) (size \
       1K) (assoc %d) (line %d) (latency 1) (cores %d)))"
      assoc line cores
  in
  expect_err (l1 ~assoc:0 ~line:64 ~cores:1);
  expect_err (l1 ~assoc:2 ~line:0 ~cores:1);
  expect_err (l1 ~assoc:(-1) ~line:(-64) ~cores:1);
  expect_err (l1 ~assoc:2 ~line:64 ~cores:65_537)

let test_parse_empty_string () =
  (* Regression: the tokenizer used to drop empty quoted strings (the
     flush after the closing quote was a no-op on an empty buffer), so
     [(machine "" ...)] lost its name atom and failed with "expected
     (machine ...)". *)
  let t =
    Topo_parse.parse
      "(machine \"\" (clock 1.0) (mem 10)\n\
      \  (cache \"c\" (level 1) (size 1K) (assoc 2) (line 64) (latency 1) \
       (core)))"
  in
  Alcotest.(check string) "empty name survives" "" t.Topology.name;
  check_int "cores" 1 t.Topology.num_cores;
  (* An empty cache name must survive a round-trip too. *)
  let t' = Topo_parse.parse (Topo_parse.to_text t) in
  Alcotest.(check string) "round-trip" "" t'.Topology.name

let test_parse_roundtrip () =
  let t = Machines.dunnington () in
  let t' = Topo_parse.parse (Topo_parse.to_text t) in
  check_int "cores" t.Topology.num_cores t'.Topology.num_cores;
  Alcotest.(check (list int)) "levels" (Topology.levels t) (Topology.levels t');
  check_opt_int "affinity preserved"
    (Topology.affinity_level t 0 1)
    (Topology.affinity_level t' 0 1);
  check_int "capacity preserved"
    (Topology.level_capacity t 3)
    (Topology.level_capacity t' 3)

(* A nesting or a list as long as the input once took a stack frame
   per level: 200,000 of either overflowed a 2 MB stack, which
   [dune runtest] also runs this group under. *)
let test_parse_deep_and_wide () =
  List.iter
    (fun (what, text) ->
      match Topo_parse.parse text with
      | exception Topo_parse.Error _ -> ()
      | _ -> Alcotest.failf "%s input accepted" what)
    [
      ("deep", String.make 200_000 '(');
      ( "wide",
        "(machine \"x\" "
        ^ String.concat " " (List.init 200_000 (fun _ -> "a"))
        ^ ")" );
    ]

(* --- Topo_parse properties ---------------------------------------------- *)

(* A valid machine of 1-3 cache levels and 1-64 cores: each cache
   above level 1 has 1-4 children a level down, each L1 1-4 cores, and
   there are as many roots as keep the machine within 64 cores. *)
let gen_topology : Topology.t QCheck.Gen.t =
 fun st ->
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let next_core = ref 0 and next_cache = ref 0 in
  let params level =
    let assoc = pick [ 1; 2; 4; 8; 16 ] and line = pick [ 32; 64; 128 ] in
    incr next_cache;
    {
      Topology.cache_name = Printf.sprintf "L%d#%d" level !next_cache;
      level;
      size_bytes = assoc * line * pick [ 1; 2; 64; 1024 ];
      assoc;
      line;
      latency = int 1 (40 * level);
      policy = pick Policy.[ Lru; Fifo; Plru; Qlru; Mru; Random (int 0 1000) ];
    }
  in
  let rec cache level =
    let p = params level in
    Topology.Cache
      ( p,
        if level = 1 then
          List.init (int 1 4) (fun _ ->
              incr next_core;
              Topology.Core (!next_core - 1))
        else List.init (int 1 4) (fun _ -> cache (level - 1)) )
  in
  let levels = int 1 3 in
  let roots =
    List.init (int 1 (64 / (1 lsl (2 * levels)))) (fun _ -> cache levels)
  in
  Topology.make
    ~name:(pick [ "Gen"; "wide machine"; "x#1"; "" ])
    ~clock_ghz:(pick [ 1.; 2.4; 3.2; 0.125; 1.23456789 ])
    ~mem_latency:(int 1 400) roots

(* Rendering a parsed rendering reproduces it. *)
let prop_topo_roundtrip =
  QCheck.Test.make ~name:"to_text (parse (to_text t)) = to_text t" ~count:300
    (QCheck.make ~print:Topo_parse.to_text gen_topology)
    (fun t ->
      let text = Topo_parse.to_text t in
      Topo_parse.to_text (Topo_parse.parse text) = text)

(* Tokens of a rendered machine: the generated names hold no blank,
   parenthesis or quote, so padding parentheses splits it. *)
let tokens text =
  String.split_on_char ' '
    (String.concat " ( "
       (String.split_on_char '('
          (String.concat " ) "
             (String.split_on_char ')'
                (String.map (function '\n' -> ' ' | c -> c) text)))))
  |> List.filter (( <> ) "")

let odd_tokens =
  [
    "("; ")"; "\""; "\"x\""; "\"\""; ";"; "machine"; "cache"; "core"; "cores";
    "level"; "size"; "assoc"; "line"; "latency"; "policy"; "clock"; "mem";
    "0"; "-1"; "1"; "65536"; "65537"; "4611686018427387903";
    "99999999999999999999"; "0K"; "1K"; "8G"; "9999999999G"; "-4M"; "nan";
    "inf"; "1e308"; "plru"; "random:7"; "bogus";
  ]

(* A valid text (dozens of tokens) with 1-4 tokens dropped, duplicated
   or replaced. *)
let gen_mutated_text : string QCheck.Gen.t =
 fun st ->
  let toks =
    ref (Array.of_list (tokens (Topo_parse.to_text (gen_topology st))))
  in
  for _ = 1 to 1 + Random.State.int st 4 do
    let a = !toks in
    let n = Array.length a in
    let i = Random.State.int st n in
    let before = Array.sub a 0 i and after = Array.sub a (i + 1) (n - i - 1) in
    let odd () =
      List.nth odd_tokens (Random.State.int st (List.length odd_tokens))
    in
    toks :=
      Array.concat
        (match Random.State.int st 3 with
        | 0 -> [ before; after ]
        | 1 -> [ before; [| a.(i); a.(i) |]; after ]
        | _ -> [ before; [| odd () |]; after ])
  done;
  String.concat " " (Array.to_list !toks)

let gen_arbitrary_text : string QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_range 0 200);
        map (String.concat " ")
          (list_size (int_range 0 40) (oneofl odd_tokens));
      ])

(* Every input gives a machine or a [Topo_parse.Error]; any other
   exception fails the property. *)
let prop_topo_parse_total =
  QCheck.Test.make ~name:"Topo_parse.parse is total" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneof [ gen_mutated_text; gen_arbitrary_text ]))
    (fun text ->
      match Topo_parse.parse text with
      | _ -> true
      | exception Topo_parse.Error _ -> true)

let test_paths () =
  (* One walk gives every core the path [path_of_core] finds. *)
  List.iter
    (fun t ->
      Alcotest.(check (list (list string)))
        (t.Topology.name ^ " paths")
        (List.init t.Topology.num_cores (fun c ->
             List.map
               (fun p -> p.Topology.cache_name)
               (Topology.path_of_core t c)))
        (Array.to_list
           (Array.map
              (List.map (fun p -> p.Topology.cache_name))
              (Topology.paths t))))
    (Topo_parse.parse sample_text
    :: List.map Machines.by_name
         [ "harpertown"; "nehalem"; "dunnington"; "arch-i"; "arch-ii" ])

let () =
  Alcotest.run "arch"
    [
      ( "machines",
        [
          Alcotest.test_case "harpertown" `Quick test_harpertown_shape;
          Alcotest.test_case "nehalem" `Quick test_nehalem_shape;
          Alcotest.test_case "dunnington" `Quick test_dunnington_shape;
          Alcotest.test_case "table1 parameters" `Quick test_table1_parameters;
          Alcotest.test_case "arch-i/ii" `Quick test_arch_i_ii;
          Alcotest.test_case "by_name" `Quick test_by_name;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "halve" `Quick test_halve_caches;
          Alcotest.test_case "scale cores" `Quick test_scale_cores;
          Alcotest.test_case "truncate" `Quick test_truncate_levels;
        ] );
      ( "topo_parse",
        [
          Alcotest.test_case "parse" `Quick test_parse_machine;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "empty string" `Quick test_parse_empty_string;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "deep and wide input" `Quick
            test_parse_deep_and_wide;
          QCheck_alcotest.to_alcotest prop_topo_roundtrip;
          QCheck_alcotest.to_alcotest prop_topo_parse_total;
        ] );
      ( "queries",
        [
          Alcotest.test_case "paths" `Quick test_path_of_core;
          Alcotest.test_case "all paths in one walk" `Quick test_paths;
          Alcotest.test_case "capacity" `Quick test_level_capacity;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
