(* Tests for bitsets, data-block maps, tagging and iteration groups. *)

open Ctam_poly
open Ctam_ir
open Ctam_blocks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Bitset --------------------------------------------------------- *)

let test_bitset_basics () =
  let b = Bitset.of_list 100 [ 0; 63; 99 ] in
  check_int "count" 3 (Bitset.count b);
  check_bool "get 63" true (Bitset.get b 63);
  check_bool "get 64" false (Bitset.get b 64);
  let b2 = Bitset.set b 64 in
  check_bool "immutable" false (Bitset.get b 64);
  check_bool "set" true (Bitset.get b2 64);
  check_int "clear" 2 (Bitset.count (Bitset.clear b 63))

let test_bitset_ops () =
  let a = Bitset.of_list 128 [ 1; 2; 3; 70 ] in
  let b = Bitset.of_list 128 [ 2; 3; 4; 80 ] in
  check_int "dot" 2 (Bitset.dot a b);
  check_int "union" 6 (Bitset.count (Bitset.union a b));
  check_int "inter" 2 (Bitset.count (Bitset.inter a b));
  check_int "diff" 2 (Bitset.count (Bitset.diff a b));
  check_int "hamming" 4 (Bitset.hamming a b);
  check_bool "subset" true (Bitset.subset (Bitset.inter a b) a);
  check_bool "not subset" false (Bitset.subset a b)

let test_bitset_string () =
  let b = Bitset.of_list 6 [ 0; 1; 4 ] in
  Alcotest.(check string) "paper notation" "110010" (Bitset.to_string b);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 4 ] (Bitset.to_list b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: bit index out of range")
    (fun () -> ignore (Bitset.get b 10))

let prop_dot_symmetric =
  let arb =
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 30) (int_range 0 99))
        (list_of_size (Gen.int_range 0 30) (int_range 0 99)))
  in
  QCheck.Test.make ~name:"dot symmetric, bounded by counts" ~count:200 arb
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      Bitset.dot a b = Bitset.dot b a
      && Bitset.dot a b <= min (Bitset.count a) (Bitset.count b))

let prop_union_count =
  let arb =
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 30) (int_range 0 99))
        (list_of_size (Gen.int_range 0 30) (int_range 0 99)))
  in
  QCheck.Test.make ~name:"inclusion-exclusion" ~count:200 arb
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      Bitset.count (Bitset.union a b) + Bitset.dot a b
      = Bitset.count a + Bitset.count b)

(* of_list builds its one array in place and iter walks words with the
   low-bit tricks; both must agree with the naive fold/per-bit
   definitions, across word boundaries (width > 63). *)
let prop_of_list_equals_fold_of_set =
  let arb =
    QCheck.(
      pair (int_range 1 200)
        (list_of_size (Gen.int_range 0 40) (int_range 0 199)))
  in
  QCheck.Test.make ~name:"of_list = fold of set" ~count:200 arb
    (fun (n, js) ->
      let js = List.filter (fun j -> j < n) js in
      let direct = Bitset.of_list n js in
      let folded =
        List.fold_left (fun b j -> Bitset.set b j) (Bitset.create n) js
      in
      Bitset.equal direct folded && Bitset.compare direct folded = 0
      && Bitset.hash direct = Bitset.hash folded)

let prop_iter_equals_naive_walk =
  let arb =
    QCheck.(
      pair (int_range 1 200)
        (list_of_size (Gen.int_range 0 40) (int_range 0 199)))
  in
  QCheck.Test.make ~name:"iter/to_list = naive per-bit walk" ~count:200 arb
    (fun (n, js) ->
      let js = List.filter (fun j -> j < n) js in
      let b = Bitset.of_list n js in
      let naive = ref [] in
      for j = n - 1 downto 0 do
        if Bitset.get b j then naive := j :: !naive
      done;
      let via_iter = ref [] in
      Bitset.iter (fun j -> via_iter := j :: !via_iter) b;
      List.rev !via_iter = !naive && Bitset.to_list b = !naive)

let test_bitset_singleton () =
  (* bit 127 lives in the second word *)
  let s = Bitset.singleton 130 127 in
  check_int "count" 1 (Bitset.count s);
  check_bool "the bit" true (Bitset.get s 127);
  check_bool "equals of_list" true
    (Bitset.equal s (Bitset.of_list 130 [ 127 ]));
  Alcotest.check_raises "oob singleton"
    (Invalid_argument "Bitset: bit index out of range") (fun () ->
      ignore (Bitset.singleton 10 10));
  Alcotest.check_raises "of_list oob"
    (Invalid_argument "Bitset: bit index out of range") (fun () ->
      ignore (Bitset.of_list 10 [ 3; 11 ]))

(* --- Block_map ------------------------------------------------------ *)

let two_arrays =
  Program.make ~name:"p"
    ~arrays:
      [
        Array_decl.make ~name:"A" ~dims:[| 100 |] ~elem_size:8;
        Array_decl.make ~name:"B" ~dims:[| 300 |] ~elem_size:8;
      ]
    ~nests:
      [
        Nest.make ~name:"n" ~index_names:[| "i" |]
          ~domain:(Domain.box [| (0, 99) |])
          ~body:
            [
              Stmt.assign
                (Reference.make ~array_name:"A" ~subs:[| Affine.var 1 0 |]
                   ~kind:Reference.Write)
                (Expr.load
                   (Reference.make ~array_name:"B"
                      ~subs:[| Affine.make [| 3 |] 0 |]
                      ~kind:Reference.Read));
            ]
          ~parallel:true;
      ]

let test_block_map () =
  let bm, layout = Block_map.for_program ~block_size:256 ~line:64 two_arrays in
  check_int "block size" 256 (Block_map.block_size bm);
  let a_lo, a_hi = Block_map.blocks_of_array bm "A" in
  check_int "A first block" 0 a_lo;
  check_int "A last block" 3 a_hi;
  let b_lo, _ = Block_map.blocks_of_array bm "B" in
  check_int "B starts new block" 4 b_lo;
  check_int "B base aligned" 0 (Layout.base layout "B" mod 256);
  check_int "addr to block" 4
    (Block_map.block_of_addr bm (Layout.base layout "B"));
  Alcotest.check_raises "oob addr"
    (Invalid_argument "Block_map.block_of_addr: address out of range")
    (fun () -> ignore (Block_map.block_of_addr bm (-1)))

let test_block_never_crosses_arrays () =
  let bm, layout = Block_map.for_program ~block_size:2048 ~line:64 two_arrays in
  List.iter
    (fun d ->
      let name = d.Array_decl.name in
      let lo, hi = Block_map.blocks_of_array bm name in
      List.iter
        (fun d' ->
          if d'.Array_decl.name <> name then begin
            let lo', hi' = Block_map.blocks_of_array bm d'.Array_decl.name in
            check_bool "disjoint block ranges" true (hi < lo' || hi' < lo)
          end)
        (Layout.arrays layout))
    (Layout.arrays layout)

(* --- Tags / Iter_group ---------------------------------------------- *)

(* The paper's Figure 5 loop: B[j] = B[j] + B[2k+j] + B[j-2k], with
   m = 12k so there are 12 data blocks: iterations fall into 8 groups
   with the tags of Figure 10(a). *)
let fig5_program k =
  let m = 12 * k in
  let d = 1 in
  let j = Affine.var d 0 in
  let b sub =
    Reference.make ~array_name:"B" ~subs:[| sub |] ~kind:Reference.Read
  in
  let wr = Reference.make ~array_name:"B" ~subs:[| j |] ~kind:Reference.Write in
  let nest =
    Nest.make ~name:"fig5" ~index_names:[| "j" |]
      ~domain:(Domain.box [| (2 * k, m - (2 * k) - 1) |])
      ~body:
        [
          Stmt.assign wr
            (Expr.add
               (Expr.add (Expr.load (b j))
                  (Expr.load (b (Affine.add_const (2 * k) j))))
               (Expr.load (b (Affine.add_const (-2 * k) j))));
        ]
      ~parallel:true
  in
  Program.make ~name:"fig5"
    ~arrays:[ Array_decl.make ~name:"B" ~dims:[| m |] ~elem_size:1 ]
    ~nests:[ nest ]

let test_fig5_groups () =
  let k = 16 in
  let p = fig5_program k in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:k ~line:8 p in
  check_int "12 blocks" 12 (Block_map.num_blocks bm);
  let g = Tags.group nest bm in
  check_int "8 groups" 8 (Array.length g.Tags.groups);
  Array.iter
    (fun grp -> check_int "k iterations each" k (Iter_group.size grp))
    g.Tags.groups;
  Alcotest.(check string)
    "first tag (Figure 10a)" "101010000000"
    (Bitset.to_string g.Tags.groups.(0).Iter_group.tag);
  Alcotest.(check string)
    "last tag" "000000010101"
    (Bitset.to_string g.Tags.groups.(7).Iter_group.tag);
  check_int "partition covers nest" (Nest.trip_count nest)
    (Tags.total_iterations g)

let test_tag_of_iteration () =
  let k = 16 in
  let p = fig5_program k in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:k ~line:8 p in
  let tag = Tags.tag_of_iteration bm nest [| 2 * k |] in
  Alcotest.(check string) "iteration tag" "101010000000" (Bitset.to_string tag)

let test_groups_disjoint () =
  let k = 16 in
  let p = fig5_program k in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:k ~line:8 p in
  let g = Tags.group nest bm in
  Array.iteri
    (fun i gi ->
      Array.iteri
        (fun l gj ->
          if i < l then
            check_bool "groups share no iterations" true
              (Iterset.is_empty
                 (Iterset.inter gi.Iter_group.iters gj.Iter_group.iters)))
        g.Tags.groups)
    g.Tags.groups

let test_group_split () =
  let k = 16 in
  let p = fig5_program k in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:k ~line:8 p in
  let g = (Tags.group nest bm).Tags.groups.(0) in
  let a, b = Iter_group.split g in
  check_int "half" (k / 2) (Iter_group.size a);
  check_int "other half" (k / 2) (Iter_group.size b);
  check_bool "same tag" true (Bitset.equal a.Iter_group.tag b.Iter_group.tag);
  check_int "same id" g.Iter_group.id a.Iter_group.id

let test_tile_coalescing () =
  let k = 16 in
  let p = fig5_program k in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:k ~line:8 p in
  (* Tiling with edge k/2 merges pairs of units but tag-equality
     grouping still recovers the 8 natural groups. *)
  let g = Tags.group ~tile:[| k / 2 |] nest bm in
  check_int "still 8 groups" 8 (Array.length g.Tags.groups);
  let gc = Tags.group_capped ~max_groups:4 nest bm in
  check_bool "cap respected" true (Array.length gc.Tags.groups <= 4);
  check_int "iterations preserved" (Nest.trip_count nest)
    (Tags.total_iterations gc)

(* --- Block_size ----------------------------------------------------- *)

let test_block_size_rule () =
  let k = 64 in
  let p = fig5_program k in
  let nest = List.hd p.Program.nests in
  let bm, _ = Block_map.for_program ~block_size:64 ~line:8 p in
  check_int "max footprint" (3 * 64) (Block_size.max_group_footprint nest bm);
  let bs, _ =
    Block_size.choose
      ~candidates:[ 32; 64; 128 ]
      ~l1_capacity:(3 * 64) ~line:8 nest p
  in
  check_int "chosen size" 64 bs;
  let bs2, _ =
    Block_size.choose
      ~candidates:[ 32; 64; 128 ]
      ~l1_capacity:100_000 ~line:8 nest p
  in
  check_int "largest fits" 128 bs2

let prop_grouping_partitions =
  QCheck.Test.make ~name:"groups partition the domain" ~count:25
    QCheck.(int_range 8 40)
    (fun n ->
      let d = 2 in
      let i = Affine.var d 0 and j = Affine.var d 1 in
      let wr =
        Reference.make ~array_name:"A" ~subs:[| i; j |] ~kind:Reference.Write
      in
      let rd =
        Reference.make ~array_name:"A"
          ~subs:[| Affine.add_const 1 i; j |]
          ~kind:Reference.Read
      in
      let nest =
        Nest.make ~name:"q" ~index_names:[| "i"; "j" |]
          ~domain:(Domain.box [| (0, n - 2); (0, n - 1) |])
          ~body:[ Stmt.assign wr (Expr.load rd) ]
          ~parallel:true
      in
      let p =
        Program.make ~name:"q"
          ~arrays:[ Array_decl.make ~name:"A" ~dims:[| n; n |] ~elem_size:8 ]
          ~nests:[ nest ]
      in
      let bm, _ = Block_map.for_program ~block_size:128 ~line:64 p in
      let g = Tags.group nest bm in
      Tags.total_iterations g = Nest.trip_count nest)

(* --- Oracle: tagging before the int-array rewrite --------------------- *)

(* Everything a grouping carries, or the [Invalid_argument] it raised. *)
let outcome f =
  match f () with
  | g ->
      Ok
        ( g.Tags.encoder,
          Array.map
            (fun x ->
              ( x.Iter_group.id,
                Bitset.width x.Iter_group.tag,
                Bitset.to_list x.Iter_group.tag,
                Iterset.keys x.Iter_group.iters ))
            g.Tags.groups )
  | exception Invalid_argument m -> Error m

let prop_group_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"group, tiled group and group_capped equal the pre-rewrite oracle"
    Nest_gen.arbitrary (fun c ->
      let bm = Nest_gen.block_map c and nest = c.Nest_gen.nest in
      let tile = c.Nest_gen.tile and max_groups = c.Nest_gen.max_groups in
      let untiled = outcome (fun () -> Tags.group nest bm) in
      untiled = outcome (fun () -> Grouping_oracle.group nest bm)
      && outcome (fun () -> Tags.group ~tile nest bm)
         = outcome (fun () -> Grouping_oracle.group ~tile nest bm)
      && outcome (fun () -> Tags.group_capped ~max_groups nest bm)
         = outcome (fun () -> Grouping_oracle.group_capped ~max_groups nest bm)
      (* A reference past its array's end must fail, not be tagged. *)
      && ((not c.Nest_gen.leaves) || Result.is_error untiled))

let test_suite_groups_match_oracle () =
  List.iter
    (fun (kernel, p, nest) ->
      List.iter
        (fun (block_size, max_groups) ->
          let bm, _ = Block_map.for_program ~block_size ~line:64 p in
          check_bool
            (Printf.sprintf "%s/%s, %d B blocks, cap %d" kernel nest.Nest.name
               block_size max_groups)
            true
            (outcome (fun () -> Tags.group_capped ~max_groups nest bm)
            = outcome (fun () ->
                  Grouping_oracle.group_capped ~max_groups nest bm)))
        [ (2048, 3000); (512, 100) ])
    (Nest_gen.suite_nests ())

let () =
  Alcotest.run "blocks"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "string" `Quick test_bitset_string;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "singleton" `Quick test_bitset_singleton;
          QCheck_alcotest.to_alcotest prop_dot_symmetric;
          QCheck_alcotest.to_alcotest prop_union_count;
          QCheck_alcotest.to_alcotest prop_of_list_equals_fold_of_set;
          QCheck_alcotest.to_alcotest prop_iter_equals_naive_walk;
        ] );
      ( "block_map",
        [
          Alcotest.test_case "mapping" `Quick test_block_map;
          Alcotest.test_case "array boundaries" `Quick
            test_block_never_crosses_arrays;
        ] );
      ( "tags",
        [
          Alcotest.test_case "figure 5 groups" `Quick test_fig5_groups;
          Alcotest.test_case "iteration tag" `Quick test_tag_of_iteration;
          Alcotest.test_case "groups disjoint" `Quick test_groups_disjoint;
          Alcotest.test_case "split" `Quick test_group_split;
          Alcotest.test_case "tile coalescing" `Quick test_tile_coalescing;
          QCheck_alcotest.to_alcotest prop_grouping_partitions;
        ] );
      ( "tags oracle",
        [
          QCheck_alcotest.to_alcotest prop_group_matches_oracle;
          Alcotest.test_case "suite kernels" `Quick
            test_suite_groups_match_oracle;
        ] );
      ( "block_size",
        [ Alcotest.test_case "section 4.1 rule" `Quick test_block_size_rule ] );
    ]
