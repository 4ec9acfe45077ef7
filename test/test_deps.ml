(* Tests for dependence analysis: GCD/Banerjee tests, exact detection,
   group dependence graphs, SCC condensation. *)

open Ctam_poly
open Ctam_ir
open Ctam_blocks
open Ctam_deps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_nest ~n body_refs =
  let stmts =
    match body_refs with
    | w :: reads ->
        [ Stmt.assign w
            (List.fold_left
               (fun acc r -> Expr.add acc (Expr.load r))
               (Expr.const 0.) reads);
        ]
    | [] -> assert false
  in
  (* [1, n-2] keeps +/-1 neighbour references in bounds. *)
  Nest.make ~name:"t" ~index_names:[| "i" |]
    ~domain:(Domain.box [| (1, n - 2) |])
    ~body:stmts ~parallel:true

let rd name sub = Reference.make ~array_name:name ~subs:[| sub |] ~kind:Reference.Read
let wr name sub = Reference.make ~array_name:name ~subs:[| sub |] ~kind:Reference.Write

let i1 = Affine.var 1 0

(* --- pairwise tests -------------------------------------------------- *)

let test_gcd () =
  (* 2i = 2i' + 1 has no integer solutions. *)
  let f = Affine.make [| 2 |] 0 and g = Affine.make [| 2 |] 1 in
  check_bool "parity excludes" true (Dep_test.gcd_test f g = Dep_test.Independent);
  (* 2i = 4i' + 2 is solvable. *)
  let g2 = Affine.make [| 4 |] 2 in
  check_bool "solvable" true (Dep_test.gcd_test f g2 = Dep_test.MaybeDependent);
  (* Constants: 3 vs 3 collide, 3 vs 4 don't. *)
  check_bool "const equal" true
    (Dep_test.gcd_test (Affine.const 1 3) (Affine.const 1 3) = Dep_test.MaybeDependent);
  check_bool "const differ" true
    (Dep_test.gcd_test (Affine.const 1 3) (Affine.const 1 4) = Dep_test.Independent)

let test_banerjee () =
  let dom = Domain.box [| (0, 9) |] in
  (* i and i' + 100 can never meet over [0,9]. *)
  check_bool "ranges disjoint" true
    (Dep_test.banerjee_test dom i1 (Affine.add_const 100 i1) = Dep_test.Independent);
  check_bool "ranges overlap" true
    (Dep_test.banerjee_test dom i1 (Affine.add_const 5 i1) = Dep_test.MaybeDependent)

let test_pair_different_arrays () =
  let dom = Domain.box [| (0, 9) |] in
  check_bool "different arrays independent" true
    (Dep_test.pair_test dom (wr "A" i1) (rd "B" i1) = Dep_test.Independent)

let test_pair_identical_injective () =
  let dom = Domain.box [| (0, 9) |] in
  (* A[i] written and read at the same iteration only: no carried dep. *)
  check_bool "identical injective" true
    (Dep_test.pair_test dom (wr "A" i1) (rd "A" i1) = Dep_test.Independent)

let test_pair_shifted () =
  let dom = Domain.box [| (0, 9) |] in
  (* A[i] written, A[i+1] read: carried dependence possible. *)
  check_bool "shifted dependent" true
    (Dep_test.pair_test dom (wr "A" i1) (rd "A" (Affine.add_const 1 i1))
     = Dep_test.MaybeDependent)

let test_omega_exactness () =
  let dom = Domain.box [| (0, 9) |] in
  (* A[2i] write vs A[2i+1] read: no collisions at all. *)
  check_bool "parity" true
    (Dep_test.omega_pair_test dom
       (wr "A" (Affine.make [| 2 |] 0))
       (rd "A" (Affine.make [| 2 |] 1))
    = Dep_test.Independent);
  (* A[i] vs A[i]: only same-iteration collisions -> independent. *)
  check_bool "identical" true
    (Dep_test.omega_pair_test dom (wr "A" i1) (rd "A" i1)
    = Dep_test.Independent);
  (* A[i] vs A[i+20] over [0,9]: ranges disjoint. *)
  check_bool "far shift" true
    (Dep_test.omega_pair_test dom (wr "A" i1) (rd "A" (Affine.add_const 20 i1))
    = Dep_test.Independent);
  (* A[i] vs A[i+1]: carried. *)
  check_bool "near shift" true
    (Dep_test.omega_pair_test dom (wr "A" i1) (rd "A" (Affine.add_const 1 i1))
    = Dep_test.MaybeDependent)

let test_omega_2d () =
  let dom = Domain.box [| (0, 5); (0, 5) |] in
  let d = 2 in
  let i = Affine.var d 0 and j = Affine.var d 1 in
  let w = Reference.make ~array_name:"A" ~subs:[| i; j |] ~kind:Reference.Write in
  (* A[i][j] vs A[i][j+1]: carried along j. *)
  let r =
    Reference.make ~array_name:"A"
      ~subs:[| i; Affine.add_const 1 j |]
      ~kind:Reference.Read
  in
  check_bool "2d shifted" true
    (Dep_test.omega_pair_test dom w r = Dep_test.MaybeDependent);
  (* A[i][j] vs A[i+10][j]: out of range in the i direction. *)
  let far =
    Reference.make ~array_name:"A"
      ~subs:[| Affine.add_const 10 i; j |]
      ~kind:Reference.Read
  in
  check_bool "2d far" true
    (Dep_test.omega_pair_test dom w far = Dep_test.Independent)

let prop_omega_sound_vs_enumeration =
  (* If omega says Independent, exhaustive enumeration over a small
     domain must find no cross-iteration collision. *)
  QCheck.Test.make ~name:"omega independence is sound" ~count:100
    QCheck.(
      quad (int_range 1 3) (int_range (-4) 4) (int_range 1 3) (int_range (-4) 4))
    (fun (c1, k1, c2, k2) ->
      let dom = Domain.box [| (0, 7) |] in
      let f = Affine.make [| c1 |] (k1 + 16) in
      let g = Affine.make [| c2 |] (k2 + 16) in
      let w = Reference.make ~array_name:"A" ~subs:[| f |] ~kind:Reference.Write in
      let r = Reference.make ~array_name:"A" ~subs:[| g |] ~kind:Reference.Read in
      match Dep_test.omega_pair_test dom w r with
      | Dep_test.MaybeDependent -> true
      | Dep_test.Independent ->
          (* brute force: no i <> i' with f(i) = g(i') *)
          let collide = ref false in
          for i = 0 to 7 do
            for i' = 0 to 7 do
              if i <> i' && Affine.eval f [| i |] = Affine.eval g [| i' |] then
                collide := true
            done
          done;
          not !collide)

(* --- nest-level ------------------------------------------------------ *)

let layout_for arrays = Layout.make ~align:64 arrays

let test_nest_stencil_free () =
  (* B[i] = A[i-1] + A[i+1]: write and reads target different arrays. *)
  let nest =
    mk_nest ~n:16
      [ wr "B" i1; rd "A" (Affine.add_const (-1) i1); rd "A" (Affine.add_const 1 i1) ]
  in
  check_bool "conservative: free" false (Dep_test.nest_may_carry_deps nest);
  let layout =
    layout_for
      [
        Array_decl.make ~name:"A" ~dims:[| 32 |] ~elem_size:8;
        Array_decl.make ~name:"B" ~dims:[| 32 |] ~elem_size:8;
      ]
  in
  check_bool "exact: free" false (Dep_test.nest_carries_deps_exact nest layout)

let test_nest_carried () =
  (* A[i] = A[i-1]: loop-carried. *)
  let nest = mk_nest ~n:16 [ wr "A" i1; rd "A" (Affine.add_const (-1) i1) ] in
  check_bool "conservative: may" true (Dep_test.nest_may_carry_deps nest);
  let layout = layout_for [ Array_decl.make ~name:"A" ~dims:[| 32 |] ~elem_size:8 ] in
  check_bool "exact: carried" true (Dep_test.nest_carries_deps_exact nest layout)

let test_exact_no_false_positive_on_reads () =
  (* Reads alone never make a dependence. *)
  let nest = mk_nest ~n:16 [ wr "B" i1; rd "A" i1; rd "A" (Affine.add_const 1 i1) ] in
  let layout =
    layout_for
      [
        Array_decl.make ~name:"A" ~dims:[| 32 |] ~elem_size:8;
        Array_decl.make ~name:"B" ~dims:[| 32 |] ~elem_size:8;
      ]
  in
  check_bool "read sharing is not a dep" false
    (Dep_test.nest_carries_deps_exact nest layout)

(* --- Dep_graph ------------------------------------------------------- *)

let test_graph_basics () =
  let g = Dep_graph.of_edges 4 [ (0, 1); (1, 2); (0, 2) ] in
  check_int "edges" 3 (Dep_graph.num_edges g);
  check_bool "has" true (Dep_graph.has_edge g 0 1);
  check_bool "not has" false (Dep_graph.has_edge g 1 0);
  Alcotest.(check (list int)) "preds" [ 0; 1 ] (Dep_graph.preds g 2);
  Alcotest.(check (list int)) "succs" [ 1; 2 ] (Dep_graph.succs g 0);
  (* Any topological order is acceptable; check the constraints. *)
  let topo = Dep_graph.topo_order g in
  let pos v = Option.get (List.find_index (fun x -> x = v) topo) in
  check_bool "0 before 1" true (pos 0 < pos 1);
  check_bool "1 before 2" true (pos 1 < pos 2);
  check_int "all nodes" 4 (List.length topo)

let test_graph_scc () =
  (* 0 -> 1 -> 2 -> 0 is a cycle; 3 hangs off it. *)
  let g = Dep_graph.of_edges 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let comp, k = Dep_graph.scc g in
  check_int "two components" 2 k;
  check_bool "cycle together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check_bool "3 alone" true (comp.(3) <> comp.(0));
  let _, dag = Dep_graph.condense g in
  check_int "condensed nodes" 2 (Dep_graph.num_nodes dag);
  check_int "condensed edges" 1 (Dep_graph.num_edges dag);
  Alcotest.(check (list int)) "dag topo is sound" (Dep_graph.topo_order dag)
    (Dep_graph.topo_order dag)

let test_topo_rejects_cycle () =
  let g = Dep_graph.of_edges 2 [ (0, 1); (1, 0) ] in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Dep_graph.topo_order: graph has a cycle") (fun () ->
      ignore (Dep_graph.topo_order g))

(* --- Group_deps ------------------------------------------------------ *)

(* A chain A[i] = A[i-g]: groups (blocks) depend forward with stride. *)
let chain_program ~n ~g =
  let d = 1 in
  let i = Affine.var d 0 in
  let nest =
    Nest.make ~name:"chain" ~index_names:[| "i" |]
      ~domain:(Domain.box [| (g, n - 1) |])
      ~body:
        [
          Stmt.assign
            (Reference.make ~array_name:"A" ~subs:[| i |] ~kind:Reference.Write)
            (Expr.load
               (Reference.make ~array_name:"A"
                  ~subs:[| Affine.add_const (-g) i |]
                  ~kind:Reference.Read));
        ]
      ~parallel:true
  in
  Program.make ~name:"chain"
    ~arrays:[ Array_decl.make ~name:"A" ~dims:[| n |] ~elem_size:8 ]
    ~nests:[ nest ]

let test_group_deps_chain () =
  let n = 512 and g = 128 in
  let p = chain_program ~n ~g in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:(128 * 8) ~line:64 p in
  let grouping = Tags.group nest bm in
  let dg = Group_deps.compute grouping in
  check_bool "has edges" true (Dep_graph.num_edges dg > 0);
  (* Must be acyclic already (forward dependences only). *)
  let merged, dag = Group_deps.merge_cycles grouping dg in
  check_int "no cycles to merge" (Array.length grouping.Tags.groups)
    (Array.length merged);
  (* Every edge respects iteration order of the group minima. *)
  List.iter
    (fun (a, b) ->
      check_bool "edges point forward" true
        (Ctam_poly.Iterset.min_key merged.(a).Iter_group.iters
        < Ctam_poly.Iterset.min_key merged.(b).Iter_group.iters))
    (Dep_graph.edges dag)

let test_group_deps_free_nest_empty () =
  let p =
    Program.make ~name:"free"
      ~arrays:
        [
          Array_decl.make ~name:"A" ~dims:[| 64 |] ~elem_size:8;
          Array_decl.make ~name:"B" ~dims:[| 64 |] ~elem_size:8;
        ]
      ~nests:
        [
          mk_nest ~n:64 [ wr "B" i1; rd "A" i1 ];
        ]
  in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:128 ~line:64 p in
  let grouping = Tags.group nest bm in
  check_bool "empty graph" true (Dep_graph.is_empty (Group_deps.compute grouping))

let test_dependent_fraction () =
  let g = Dep_graph.of_edges 4 [ (0, 1) ] in
  Alcotest.(check (float 1e-9)) "half the nodes" 0.5
    (Group_deps.dependent_fraction g)

let prop_scc_condensation_acyclic =
  let arb =
    QCheck.(
      pair (int_range 2 10)
        (list_of_size (Gen.int_range 0 30) (pair (int_range 0 9) (int_range 0 9))))
  in
  QCheck.Test.make ~name:"condensation is always acyclic" ~count:200 arb
    (fun (n, edges) ->
      let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
      let g = Dep_graph.of_edges n edges in
      let _, dag = Dep_graph.condense g in
      match Dep_graph.topo_order dag with
      | _ -> true
      | exception Invalid_argument _ -> false)

(* --- Oracle: the dependence scan before the int-array rewrite --------- *)

let same_edges grouping =
  Dep_graph.edges (Group_deps.compute grouping)
  = Dep_graph.edges (Grouping_oracle.compute grouping)

let prop_group_deps_match_oracle =
  (* Both scans start with the nest-level dependence test, which
     dominates on some generated nests: 200 cases over two groupings
     each keep the property near a second. *)
  QCheck.Test.make ~count:200
    ~name:"compute's edges equal the pre-rewrite oracle's"
    Nest_gen.arbitrary (fun c ->
      (* A reference past its array's end fails in tagging already. *)
      c.Nest_gen.leaves
      ||
      let bm = Nest_gen.block_map c and nest = c.Nest_gen.nest in
      same_edges (Tags.group nest bm)
      && same_edges (Tags.group ~tile:c.Nest_gen.tile nest bm))

let test_suite_deps_match_oracle () =
  List.iter
    (fun (kernel, p, nest) ->
      List.iter
        (fun (block_size, max_groups) ->
          let bm, _ = Block_map.for_program ~block_size ~line:64 p in
          check_bool
            (Printf.sprintf "%s/%s, %d B blocks, cap %d" kernel nest.Nest.name
               block_size max_groups)
            true
            (same_edges (Tags.group_capped ~max_groups nest bm)))
        [ (2048, 3000); (512, 100) ])
    (Nest_gen.suite_nests ())

let () =
  Alcotest.run "deps"
    [
      ( "pair tests",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "banerjee" `Quick test_banerjee;
          Alcotest.test_case "different arrays" `Quick test_pair_different_arrays;
          Alcotest.test_case "identical injective" `Quick
            test_pair_identical_injective;
          Alcotest.test_case "shifted" `Quick test_pair_shifted;
          Alcotest.test_case "omega exactness" `Quick test_omega_exactness;
          Alcotest.test_case "omega 2d" `Quick test_omega_2d;
          QCheck_alcotest.to_alcotest prop_omega_sound_vs_enumeration;
        ] );
      ( "nest tests",
        [
          Alcotest.test_case "stencil free" `Quick test_nest_stencil_free;
          Alcotest.test_case "carried" `Quick test_nest_carried;
          Alcotest.test_case "reads only" `Quick
            test_exact_no_false_positive_on_reads;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "scc" `Quick test_graph_scc;
          Alcotest.test_case "topo cycle" `Quick test_topo_rejects_cycle;
          QCheck_alcotest.to_alcotest prop_scc_condensation_acyclic;
        ] );
      ( "group deps",
        [
          Alcotest.test_case "chain" `Quick test_group_deps_chain;
          Alcotest.test_case "free nest" `Quick test_group_deps_free_nest_empty;
          Alcotest.test_case "dependent fraction" `Quick test_dependent_fraction;
        ] );
      ( "deps oracle",
        [
          QCheck_alcotest.to_alcotest prop_group_deps_match_oracle;
          Alcotest.test_case "suite kernels" `Quick
            test_suite_deps_match_oracle;
        ] );
    ]
