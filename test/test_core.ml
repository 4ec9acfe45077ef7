(* Tests for the core mapping library: distribution (Fig. 6),
   scheduling (Fig. 7), baselines, the end-to-end pipeline and the
   optimal search. *)

open Ctam_poly
open Ctam_ir
open Ctam_arch
open Ctam_blocks
open Ctam_deps
open Ctam_core
open Ctam_cachesim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small machine keeps these tests fast: Dunnington topology at 1/64
   capacity. *)
let machine = Machines.dunnington ~scale:64 ()

(* The paper's worked example: Figure 5 loop, 12 blocks, 8 groups. *)
let fig5_program k =
  let m = 12 * k in
  let d = 1 in
  let j = Affine.var d 0 in
  let b sub = Reference.make ~array_name:"B" ~subs:[| sub |] ~kind:Reference.Read in
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
    ~arrays:[ Array_decl.make ~name:"B" ~dims:[| m |] ~elem_size:8 ]
    ~nests:[ nest ]

let groups_of ?(block = 2048) p =
  let nest = List.hd (Program.parallel_nests p) in
  let bm, _ = Block_map.for_program ~block_size:block ~line:64 p in
  let grouping = Tags.group nest bm in
  (nest, grouping)

let total_groups_iters gs =
  List.fold_left (fun a g -> a + Iter_group.size g) 0 gs

(* --- Distribute ------------------------------------------------------ *)

let test_distribute_partition_preserved () =
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  check_int "core count" 12 (Array.length assignment);
  let before = Array.fold_left (fun a g -> a + Iter_group.size g) 0 groups in
  let after = Array.fold_left (fun a gs -> a + total_groups_iters gs) 0 assignment in
  check_int "iterations preserved" before after;
  (* Disjointness across cores. *)
  let enc = grouping.Tags.encoder in
  let union =
    Array.fold_left
      (fun acc gs ->
        List.fold_left
          (fun acc g ->
            check_bool "cores disjoint" true
              (Iterset.is_empty (Iterset.inter acc g.Iter_group.iters));
            Iterset.union acc g.Iter_group.iters)
          acc gs)
      (Iterset.empty enc) assignment
  in
  check_int "union covers" before (Iterset.cardinal union)

let test_distribute_balanced () =
  let _, grouping = groups_of (fig5_program 256) in
  let assignment =
    Distribute.run ~balance_threshold:0.10 machine grouping.Tags.groups
  in
  let sizes = Array.map total_groups_iters assignment in
  let total = Array.fold_left ( + ) 0 sizes in
  let avg = float_of_int total /. 12. in
  Array.iter
    (fun s ->
      check_bool "within global threshold" true
        (abs_float (float_of_int s -. avg) <= (0.10 *. avg) +. 1.))
    sizes

let test_cluster_into () =
  let _, grouping = groups_of (fig5_program 256) in
  let clusters = Distribute.cluster_into 3 (Array.to_list grouping.Tags.groups) in
  check_int "three clusters" 3 (List.length clusters);
  let all = List.concat clusters in
  check_int "no group lost" 8 (List.length all);
  (* More clusters than groups: splitting must provide them. *)
  let clusters10 = Distribute.cluster_into 10 (Array.to_list grouping.Tags.groups) in
  check_int "ten clusters" 10 (List.length clusters10);
  check_int "iterations preserved"
    (Tags.total_iterations grouping)
    (List.fold_left (fun a c -> a + total_groups_iters c) 0 clusters10)

let test_balance_respects_weights () =
  let _, grouping = groups_of (fig5_program 256) in
  let gs = Array.to_list grouping.Tags.groups in
  let clusters = [| gs; [] |] in
  let balanced = Distribute.balance ~threshold:0.05 ~weights:[| 3; 1 |] clusters in
  let s0 = total_groups_iters balanced.(0)
  and s1 = total_groups_iters balanced.(1) in
  let total = float_of_int (s0 + s1) in
  check_bool "3:1 split" true
    (abs_float (float_of_int s0 -. (0.75 *. total)) <= (0.06 *. total) +. 1.)

(* Affinity property: the distribution should put the groups sharing
   blocks on affine cores more often than a random split would. *)
let test_distribute_affinity_quality () =
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  (* For every pair of groups with positive dot sharing a socket's
     cores, count; the fig5 chain decomposes into odd/even chains that
     should not straddle sockets more than necessary. *)
  let core_of = Hashtbl.create 16 in
  Array.iteri
    (fun c gs -> List.iter (fun g -> Hashtbl.replace core_of g.Iter_group.id c) gs)
    assignment;
  let cross = ref 0 and affine = ref 0 in
  Array.iteri
    (fun i gi ->
      Array.iteri
        (fun j gj ->
          if i < j && Iter_group.dot gi gj > 0 then begin
            match
              ( Hashtbl.find_opt core_of gi.Iter_group.id,
                Hashtbl.find_opt core_of gj.Iter_group.id )
            with
            | Some ci, Some cj ->
                if Topology.affinity_level machine ci cj = None then incr cross
                else incr affine
            | _ -> ()
          end)
        groups)
    groups;
  check_bool "sharing pairs mostly affine" true (!affine >= !cross)

(* Which of several equal-priority pairs merges first is part of the
   model, so the clustering is compared with the pre-rewrite oracle on
   inputs built to tie: tags of 1–130 bits (across the 62-bit word
   boundary), duplicate tags, first keys on a coarse lattice so
   proximities repeat, and hot blocks carried by most groups, which
   past 64 groups the fanout cap skips, leaving pairs only the
   zero-affinity fallback merges. *)
type cluster_case = {
  width : int;
  groups : (int list * int * int) list;  (* set bits, first key, size *)
  k : int;
  allow_splits : bool;
}

let gen_cluster_case =
  QCheck.Gen.(
    let* width = int_range 1 130 in
    let* n = int_range 2 300 in
    let* hot = list_size (int_range 1 2) (int_bound (width - 1)) in
    let* hot_pct = oneofl [ 0; 30; 90 ] in
    let gen_group =
      let* own = list_size (int_range 0 3) (int_bound (width - 1)) in
      let* is_hot = map (fun p -> p < hot_pct) (int_bound 99) in
      let* first = map (fun l -> 8 * l) (int_bound 40) in
      let+ size = int_range 1 5 in
      ((if is_hot then hot @ own else own), first, size)
    in
    let* fresh = list_repeat n gen_group in
    (* A duplicate copies the tag of an earlier group. *)
    let* dups =
      list_repeat n (frequency [ (1, map Option.some nat); (4, return None) ])
    in
    let bits = Array.of_list (List.map (fun (b, _, _) -> b) fresh) in
    let groups =
      List.mapi
        (fun i ((_, first, size), dup) ->
          match dup with
          | Some j when i > 0 -> (bits.(j mod i), first, size)
          | _ -> (bits.(i), first, size))
        (List.combine fresh dups)
    in
    let* k = int_range 1 (n + 2) in
    let+ allow_splits = bool in
    { width; groups; k; allow_splits })

let show_cluster_case c =
  Printf.sprintf "width %d, k %d, allow_splits %b, groups [%s]" c.width c.k
    c.allow_splits
    (String.concat "; "
       (List.map
          (fun (bits, first, size) ->
            Printf.sprintf "{%s}@%d+%d"
              (String.concat "," (List.map string_of_int bits))
              first size)
          c.groups))

let prop_cluster_into_matches_oracle =
  let enc = Iterset.encoder_of_box [| 0 |] [| 400 |] in
  QCheck.Test.make ~name:"cluster_into equals the pre-rewrite oracle"
    ~count:300
    (QCheck.make ~print:show_cluster_case gen_cluster_case)
    (fun c ->
      let groups =
        List.mapi
          (fun id (bits, first, size) ->
            {
              Iter_group.id;
              tag = Bitset.of_list c.width bits;
              iters =
                Iterset.of_list enc (List.init size (fun i -> [| first + i |]));
            })
          c.groups
      in
      let view =
        List.map
          (List.map (fun g ->
               ( g.Iter_group.id,
                 Bitset.to_string g.Iter_group.tag,
                 Iterset.keys g.Iter_group.iters )))
      in
      let allow_splits = c.allow_splits in
      view (Distribute.cluster_into ~allow_splits c.k groups)
      = view (Distribute_oracle.cluster_into ~allow_splits c.k groups))

(* The balancer against its pre-refactor oracle.  Clusters may be
   empty, groups may hold one iteration or dozens (the split moves of
   both passes), weights are uneven and thresholds run from none to
   loose.  A one-iteration group always fits both windows when the
   threshold is not negative, so only the negative thresholds, which
   [Mapping.validate_params] refuses, reach the last-resort move.
   First keys sit on a coarse lattice and tags are narrow, so affinity
   and proximity tie often.  The mesa digest below reaches whole-group
   moves only. *)
type balance_case = {
  b_width : int;
  clusters : (int list * int * int) list list;  (* set bits, first key, size *)
  weights : int list;
  threshold : float;
  b_allow_splits : bool;
}

let gen_balance_case =
  QCheck.Gen.(
    let* b_width = int_range 1 70 in
    let gen_group =
      let* bits = list_size (int_range 0 3) (int_bound (b_width - 1)) in
      let* first = map (fun l -> 8 * l) (int_bound 40) in
      let+ size =
        frequency [ (3, return 1); (3, int_range 2 5); (1, int_range 10 60) ]
      in
      (bits, first, size)
    in
    let* k = int_range 1 6 in
    let* clusters =
      list_repeat k
        (frequency
           [ (1, return []); (3, list_size (int_range 1 12) gen_group) ])
    in
    let* weights = list_repeat k (int_range 1 4) in
    let* threshold = oneofl [ -0.2; -0.05; 0.; 0.001; 0.01; 0.05; 0.1; 0.3 ] in
    let+ b_allow_splits = bool in
    { b_width; clusters; weights; threshold; b_allow_splits })

let show_balance_case c =
  Printf.sprintf "width %d, weights [%s], threshold %g, allow_splits %b, %s"
    c.b_width
    (String.concat "; " (List.map string_of_int c.weights))
    c.threshold c.b_allow_splits
    (String.concat " | "
       (List.map
          (fun gs ->
            String.concat "; "
              (List.map
                 (fun (bits, first, size) ->
                   Printf.sprintf "{%s}@%d+%d"
                     (String.concat "," (List.map string_of_int bits))
                     first size)
                 gs))
          c.clusters))

let prop_balance_matches_oracle =
  let enc = Iterset.encoder_of_box [| 0 |] [| 400 |] in
  QCheck.Test.make ~name:"balance equals the pre-refactor oracle" ~count:500
    (QCheck.make ~print:show_balance_case gen_balance_case)
    (fun c ->
      let id = ref 0 in
      let clusters =
        Array.of_list
          (List.map
             (List.map (fun (bits, first, size) ->
                  incr id;
                  {
                    Iter_group.id = !id;
                    tag = Bitset.of_list c.b_width bits;
                    iters =
                      Iterset.of_list enc
                        (List.init size (fun i -> [| first + i |]));
                  }))
             c.clusters)
      in
      let view =
        Array.map
          (List.map (fun g ->
               ( g.Iter_group.id,
                 Bitset.to_string g.Iter_group.tag,
                 Iterset.keys g.Iter_group.iters )))
      in
      let weights = Array.of_list c.weights in
      let allow_splits = c.b_allow_splits and threshold = c.threshold in
      let ours = Distribute.balance ~allow_splits ~threshold ~weights clusters
      and oracle =
        Distribute_oracle.balance ~allow_splits ~threshold ~weights clusters
      in
      view ours = view oracle)

(* The sweep's heaviest distribution: mesa's reduced-size grouping
   (2141 groups whose tags span 68 blocks, so weights tie constantly)
   on Dunnington at capacity divisor 16.  The digest of every core's
   group ids and iteration keys was recorded before the candidate heap
   was rewritten. *)
let test_distribute_mesa_pinned () =
  let machine = Machines.dunnington ~scale:16 () in
  let prog = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.mesa in
  let nest = List.hd (Program.parallel_nests prog) in
  let _, groups, _ =
    Mapping.grouping_for ~params:Mapping.default_params ~machine prog nest
  in
  check_int "groups" 2141 (Array.length groups);
  let buf = Buffer.create 65536 in
  Array.iteri
    (fun c gs ->
      Printf.bprintf buf "core%d|" c;
      List.iter
        (fun g ->
          Printf.bprintf buf "%d:" g.Iter_group.id;
          Array.iter (Printf.bprintf buf "%d,") (Iterset.keys g.Iter_group.iters);
          Buffer.add_char buf ';')
        gs)
    (Distribute.run machine groups);
  Alcotest.(check string)
    "assignment digest" "e9f3f1f17a28616eb944e31653eb093d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Schedule -------------------------------------------------------- *)

let test_schedule_preserves_groups () =
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  let dg = Dep_graph.create (Array.length groups) in
  let sched = Schedule.run machine assignment dg in
  let per_core = Schedule.per_core sched in
  Array.iteri
    (fun c gs ->
      check_int
        (Printf.sprintf "core %d same iterations" c)
        (total_groups_iters assignment.(c))
        (total_groups_iters gs))
    per_core

let test_schedule_respects_deps () =
  let k = 256 in
  let p = fig5_program k in
  let nest, _ = groups_of p in
  ignore nest;
  let bm, _ = Block_map.for_program ~block_size:2048 ~line:64 p in
  let nest = List.hd (Program.parallel_nests p) in
  let grouping = Tags.group nest bm in
  let dg0 = Group_deps.compute grouping in
  let groups, dag = Group_deps.merge_cycles grouping dg0 in
  let assignment = Distribute.run machine groups in
  let sched = Schedule.run machine assignment dag in
  check_bool "dependences respected" true (Schedule.respects_deps sched dag);
  check_bool "multiple rounds" true (Schedule.num_rounds sched > 1)

let test_schedule_quantum () =
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  let dg = Dep_graph.create (Array.length groups) in
  let one_round = Schedule.run ~quantum:max_int machine assignment dg in
  check_int "single round when quantum is huge" 1 (Schedule.num_rounds one_round)

(* --- Baselines ------------------------------------------------------- *)

let test_block_partition () =
  let p = fig5_program 256 in
  let nest = List.hd (Program.parallel_nests p) in
  let chunks = Baselines.block_partition ~n:4 nest in
  check_int "4 chunks" 4 (Array.length chunks);
  let sizes = Array.map Iterset.cardinal chunks in
  let total = Array.fold_left ( + ) 0 sizes in
  check_int "covers" (Nest.trip_count nest) total;
  Array.iter
    (fun s -> check_bool "even" true (abs (s - (total / 4)) <= 1))
    sizes;
  (* Chunks are contiguous in lexicographic order. *)
  let flat = List.concat_map Iterset.to_list (Array.to_list chunks) in
  let sorted = List.sort compare (List.map (fun iv -> iv.(0)) flat) in
  Alcotest.(check (list int)) "in order" sorted (List.map (fun iv -> iv.(0)) flat)

(* Base's chunks against the pre-rewrite partition, as the Base plan
   encoded it: the same key set (and encoder) on every core. *)
let chunks_view sets =
  Array.map (fun s -> (Iterset.encoder s, Iterset.keys s)) sets

let same_chunks ~n nest =
  chunks_view (Baselines.block_partition ~n nest)
  = chunks_view (Grouping_oracle.base_chunk_sets ~n nest)

let prop_chunks_match_oracle =
  QCheck.Test.make ~count:300
    ~name:"block_partition equals the pre-rewrite Base chunks"
    Nest_gen.arbitrary (fun c ->
      same_chunks ~n:c.Nest_gen.cores c.Nest_gen.nest)

let test_suite_chunks_match_oracle () =
  List.iter
    (fun (kernel, _, nest) ->
      List.iter
        (fun n ->
          check_bool
            (Printf.sprintf "%s/%s on %d cores" kernel nest.Nest.name n)
            true (same_chunks ~n nest))
        [ 1; 7; 12; 24 ])
    (Nest_gen.suite_nests ())

let test_default_assignment () =
  let _, grouping = groups_of (fig5_program 256) in
  let assignment = Baselines.default_assignment ~topo:machine grouping.Tags.groups in
  check_int "cores" 12 (Array.length assignment);
  let total = Array.fold_left (fun a gs -> a + total_groups_iters gs) 0 assignment in
  check_int "iterations preserved" (Tags.total_iterations grouping) total

(* --- Permute / Tiling ------------------------------------------------- *)

let transpose_program n =
  let d = 2 in
  let i = Affine.var d 0 and j = Affine.var d 1 in
  let wr = Reference.make ~array_name:"OutA" ~subs:[| i; j |] ~kind:Reference.Write in
  let rd = Reference.make ~array_name:"InA" ~subs:[| j; i |] ~kind:Reference.Read in
  let nest =
    Nest.make ~name:"tr" ~index_names:[| "i"; "j" |]
      ~domain:(Domain.box [| (0, n - 1); (0, n - 1) |])
      ~body:[ Stmt.assign wr (Expr.load rd) ]
      ~parallel:true
  in
  Program.make ~name:"tr"
    ~arrays:
      [
        Array_decl.make ~name:"OutA" ~dims:[| n; n |] ~elem_size:8;
        Array_decl.make ~name:"InA" ~dims:[| n; n |] ~elem_size:8;
      ]
    ~nests:[ nest ]

let test_permute_stride () =
  let p = transpose_program 64 in
  let layout = Layout.of_program ~align:64 p in
  let nest = List.hd p.Program.nests in
  (* Bumping j moves OutA by 8 bytes and InA by a whole row. *)
  let sj = Permute.stride layout nest 1 in
  let si = Permute.stride layout nest 0 in
  (* Symmetric for a pure transpose: both indices average the same. *)
  Alcotest.(check (float 1.)) "sym" si sj;
  (* On a row sweep (galgel-like) j is clearly innermost. *)
  let p2 =
    Program.make ~name:"row"
      ~arrays:[ Array_decl.make ~name:"A" ~dims:[| 64; 64 |] ~elem_size:8 ]
      ~nests:
        [
          Nest.make ~name:"row" ~index_names:[| "i"; "j" |]
            ~domain:(Domain.box [| (0, 62); (0, 63) |])
            ~body:
              [
                Stmt.assign
                  (Reference.make ~array_name:"A"
                     ~subs:[| Affine.var 2 0; Affine.var 2 1 |]
                     ~kind:Reference.Write)
                  (Expr.load
                     (Reference.make ~array_name:"A"
                        ~subs:[| Affine.add_const 1 (Affine.var 2 0); Affine.var 2 1 |]
                        ~kind:Reference.Read));
              ]
            ~parallel:true;
        ]
  in
  let layout2 = Layout.of_program ~align:64 p2 in
  let nest2 = List.hd p2.Program.nests in
  let order = Permute.best_order layout2 nest2 in
  check_int "j innermost" 1 order.(1)

let test_tiling_apply () =
  let iters =
    List.concat_map (fun i -> List.map (fun j -> [| i; j |]) [ 0; 1; 2; 3 ]) [ 0; 1; 2; 3 ]
  in
  let tiled = Tiling.apply ~tile:[| 2; 2 |] ~perm:[| 0; 1 |] iters in
  (* First tile fully enumerated before the second one starts. *)
  Alcotest.(check (list (array int)))
    "tile order"
    [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]
    (List.filteri (fun i _ -> i < 4) tiled);
  check_int "same count" 16 (List.length tiled);
  Alcotest.check_raises "bad tile" (Invalid_argument "Tiling.apply: tile")
    (fun () -> ignore (Tiling.apply ~tile:[| 0; 2 |] ~perm:[| 0; 1 |] iters))

let test_choose_tile_bounds () =
  let p = transpose_program 64 in
  let layout = Layout.of_program ~align:64 p in
  let nest = List.hd p.Program.nests in
  let t = Tiling.choose_tile ~l1_bytes:2048 layout nest in
  check_bool "clamped" true (t >= 4 && t <= 256)

(* --- Mapping pipeline ------------------------------------------------- *)

let test_compile_all_schemes_cover () =
  let p = fig5_program 256 in
  let nest = List.hd (Program.parallel_nests p) in
  let expected = Nest.trip_count nest * 4 (* refs per iteration *) in
  List.iter
    (fun scheme ->
      let c = Mapping.compile scheme ~machine p in
      let total =
        List.fold_left
          (fun acc phase ->
            Array.fold_left (fun acc s -> acc + Engine.stream_length s) acc phase)
          0 c.Mapping.phases
      in
      check_int
        (Mapping.scheme_name scheme ^ " emits every access")
        expected total)
    Mapping.all_schemes

let test_simulate_deterministic () =
  let p = fig5_program 256 in
  let s1 = Mapping.run Mapping.Combined ~machine p in
  let s2 = Mapping.run Mapping.Combined ~machine p in
  check_int "same cycles" s1.Stats.cycles s2.Stats.cycles;
  check_int "same misses" s1.Stats.mem_accesses s2.Stats.mem_accesses

let test_stream_compile_matches_dense () =
  (* A streamed compile keeps the cursors a dense compile forces: for
     every scheme the access sequences agree, and the engine, which
     draws a cursor's accesses chunk by chunk, simulates them
     bit-identically. *)
  let p = fig5_program 256 in
  List.iter
    (fun scheme ->
      let dense = Mapping.compile scheme ~machine p in
      let streamed = Mapping.compile ~stream:true scheme ~machine p in
      let name = Mapping.scheme_name scheme in
      let force c =
        List.map (Array.map Engine.force_stream) c.Mapping.phases
      in
      check_bool (name ^ ": generator in phases") true
        (List.exists
           (Array.exists (function Engine.Gen _ -> true | Engine.Dense _ -> false))
           streamed.Mapping.phases);
      check_bool (name ^ ": same access sequences") true
        (force streamed = force dense);
      check_bool (name ^ ": bit-identical stats") true
        (Mapping.simulate streamed = Mapping.simulate dense);
      (* Set-sampled runs scan the cursors' chunks for the next
         sampled access (Trace's buffers, stream_concat's parts); the
         extrapolated statistics must not depend on the stream
         representation.  The scale-64 machine's L1 has a
         single set, so sample on a scale-16 one. *)
      let m2 = Machines.dunnington ~scale:16 () in
      let p2 = fig5_program 64 in
      let dense2 = Mapping.compile scheme ~machine:m2 p2 in
      let streamed2 = Mapping.compile ~stream:true scheme ~machine:m2 p2 in
      check_bool (name ^ ": bit-identical sampled stats") true
        (Mapping.simulate ~sample_sets:2 streamed2
        = Mapping.simulate ~sample_sets:2 dense2))
    Mapping.all_schemes

(* --- Stream oracle ---------------------------------------------------- *)

(* The access stream of a sequence of points, built apart from
   [Trace]'s cursors: each point in [iter]'s order, one encoded access
   per [Nest.refs] entry in program order. *)
let oracle_stream layout nest iter =
  let out = ref [] in
  iter (fun iv ->
      List.iter
        (fun r ->
          out :=
            Engine.encode_access ~addr:(Layout.ref_addr layout r iv)
              ~write:(Reference.is_write r)
            :: !out)
        (Nest.refs nest));
  Array.of_list (List.rev !out)

let oracle_iterset layout nest s =
  oracle_stream layout nest (fun f -> Iterset.iter f s)

let oracle_groups layout nest gs =
  Array.concat
    (List.map (fun g -> oracle_iterset layout nest g.Iter_group.iters) gs)

let oracle_serial layout nest =
  oracle_stream layout nest (fun f -> Domain.iter f nest.Nest.domain)

(* Every builder of [Trace], forced twice (the second force restarts
   the cursor), against the oracle: the nest's domain, a random subset
   of it as a set, the subset's points in a random order as a list, and
   the subset dealt into random groups. *)
let builders_match_oracle ~rng layout nest =
  let forced s =
    let a = Engine.force_stream s in
    if Engine.force_stream s = a then Some a else None
  in
  let dom = nest.Nest.domain in
  let enc = Iterset.encoder_of_domain dom in
  let whole = Iterset.of_domain enc dom in
  let subset =
    Iterset.of_list enc
      (List.filter (fun _ -> Random.State.bool rng) (Iterset.to_list whole))
  in
  let shuffled =
    List.map (fun p -> (Random.State.bits rng, p)) (Iterset.to_list subset)
    |> List.sort compare |> List.map snd
  in
  let groups =
    let k = 1 + Random.State.int rng 4 in
    let parts = Array.make k [] in
    Iterset.iter
      (fun p ->
        let g = Random.State.int rng k in
        parts.(g) <- p :: parts.(g))
      subset;
    Array.to_list
      (Array.mapi
         (fun id pts ->
           {
             Iter_group.id;
             tag = Bitset.create 0;
             iters = Iterset.of_list enc pts;
           })
         parts)
  in
  forced (Trace.serial layout nest) = Some (oracle_serial layout nest)
  && forced (Trace.of_iterset layout nest whole)
     = Some (oracle_iterset layout nest whole)
  && forced (Trace.of_iterset layout nest subset)
     = Some (oracle_iterset layout nest subset)
  && forced (Trace.of_iters layout nest shuffled)
     = Some (oracle_stream layout nest (fun f -> List.iter f shuffled))
  && forced (Trace.of_groups layout nest groups)
     = Some (oracle_groups layout nest groups)

let test_suite_builders_match_oracle () =
  let rng = Random.State.make [| 30 |] in
  List.iter
    (fun k ->
      let p = Ctam_workloads.Kernel.small_program k in
      let _, layout = Block_map.for_program ~block_size:2048 ~line:64 p in
      List.iter
        (fun nest ->
          check_bool
            (Printf.sprintf "%s/%s" k.Ctam_workloads.Kernel.name
               nest.Nest.name)
            true
            (builders_match_oracle ~rng layout nest))
        p.Program.nests)
    Ctam_workloads.Suite.all

let prop_builders_match_oracle =
  QCheck.Test.make ~count:200 ~name:"Trace builders equal the stream oracle"
    QCheck.(pair Nest_gen.arbitrary int)
    (fun (c, seed) ->
      (* A reference past its array's end fails in both. *)
      QCheck.assume (not c.Nest_gen.leaves);
      let _, layout =
        Block_map.for_program ~block_size:c.Nest_gen.block_size
          ~line:c.Nest_gen.line c.Nest_gen.program
      in
      builders_match_oracle ~rng:(Random.State.make [| seed |]) layout
        c.Nest_gen.nest)

(* The phases of a compile, rebuilt from its plans with the oracle: a
   parallel nest's round gives each core its groups in order, a serial
   nest's gives core 0 the domain.  This also pins the plans mirroring
   the phases, which [Mapping.segments] relies on.  Each case compiles
   dense and streamed.
   - Every suite kernel under Base, Local, TopologyAware and Combined
     runs its nest, then the same nest serially; equake and mesa,
     which take seconds to group, are left out.
   - Base+ plans do not carry its permuted order (its chunks are
     covered by the builders), except where a nest carries
     dependences: sp and facesim compile as synchronized Base, with
     barriers.
   - Figure 5's loop at k = 1 has 8 iterations for 12 cores, so four
     Base chunks are empty and trace as empty group lists. *)
let test_compiled_phases_match_oracle () =
  let check name p schemes =
    List.iter
      (fun (scheme, stream) ->
        let c = Mapping.compile ~stream scheme ~machine p in
        let rebuilt =
          List.concat_map
            (fun plan ->
              let nest = plan.Mapping.plan_nest in
              List.map
                (Array.map (fun gs ->
                     if nest.Nest.parallel then
                       oracle_groups c.Mapping.layout nest gs
                     else if gs = [] then [||]
                     else oracle_serial c.Mapping.layout nest))
                plan.Mapping.plan_rounds)
            c.Mapping.plans
        in
        check_bool
          (Printf.sprintf "%s %s%s" name (Mapping.scheme_name scheme)
             (if stream then " streamed" else ""))
          true
          (Mapping.forced_phases c = rebuilt))
      (List.concat_map
         (fun scheme -> [ (scheme, false); (scheme, true) ])
         schemes)
  in
  List.iter
    (fun k ->
      let p = Ctam_workloads.Kernel.small_program k in
      let p =
        {
          p with
          Program.nests =
            p.Program.nests
            @ List.map
                (fun n -> { n with Nest.name = "serial"; parallel = false })
                p.Program.nests;
        }
      in
      check k.Ctam_workloads.Kernel.name p
        Mapping.[ Base; Local; Topology_aware; Combined ])
    (List.filter
       (fun k ->
         not (List.mem k.Ctam_workloads.Kernel.name [ "equake"; "mesa" ]))
       Ctam_workloads.Suite.all);
  List.iter
    (fun name ->
      let p =
        Ctam_workloads.Kernel.small_program
          (Ctam_workloads.Suite.by_name name)
      in
      check_bool (name ^ ": Base+ synchronizes") true
        (List.for_all
           (fun plan -> plan.Mapping.plan_barriers)
           (Mapping.compile Mapping.Base_plus ~machine p).Mapping.plans);
      check name p [ Mapping.Base_plus ])
    [ "sp"; "facesim" ];
  let p = fig5_program 1 in
  check_bool "fig5/1: fewer iterations than cores" true
    (Nest.trip_count (List.hd p.Program.nests) < machine.Topology.num_cores);
  check "fig5/1" p Mapping.[ Base; Local; Topology_aware; Combined ]

(* Compiles and simulations poll the request deadline: under a 1 ms
   deadline, a full-size compile and the simulation of a full-size plan
   stop with [Expired] long before they would finish. *)
let test_deadline_stops_compile_and_simulate () =
  let module D = Ctam_util.Deadline in
  let machine = Machines.dunnington ~scale:16 () in
  let program k = Ctam_workloads.Kernel.program k in
  let stops what f =
    let t0 = Unix.gettimeofday () in
    (match D.within ~ms:1 f with
    | () -> Alcotest.fail (what ^ " finished within 1 ms")
    | exception D.Expired -> ());
    check_bool (what ^ " stops within 2 s") true
      (Unix.gettimeofday () -. t0 < 2.)
  in
  let equake = program Ctam_workloads.Suite.equake in
  stops "compile" (fun () ->
      ignore (Mapping.compile Mapping.Topology_aware ~machine equake));
  let plan =
    Mapping.compile Mapping.Base ~machine (program Ctam_workloads.Suite.cg)
  in
  stops "simulate" (fun () -> ignore (Mapping.simulate plan))

(* Compile timings are wall-clock seconds that cover the whole
   compile.  With a second domain spinning, a process CPU clock would
   count that domain's time too, and the phases would sum to more than
   the compile took; and every part of a compile, Base's chunking and
   plan building included, falls inside some phase. *)
let test_timings_on_wall_clock () =
  let timed_and_wall f =
    let t0 = Unix.gettimeofday () in
    let c = f () in
    let wall = Unix.gettimeofday () -. t0 in
    (List.fold_left (fun acc (_, s) -> acc +. s) 0. c.Mapping.timings, wall)
  in
  let program k =
    Ctam_workloads.Kernel.program
      ~size:(2 * k.Ctam_workloads.Kernel.default_size) k
  in
  let stop = Atomic.make false in
  let spinner =
    Stdlib.Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ()
        done)
  in
  let sp = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.sp in
  let timed, wall =
    timed_and_wall (fun () -> Mapping.compile Mapping.Combined ~machine sp)
  in
  Atomic.set stop true;
  Stdlib.Domain.join spinner;
  check_bool
    (Printf.sprintf "phases (%.3f s) within the compile (%.3f s)" timed wall)
    true (timed <= wall);
  let applu = program Ctam_workloads.Suite.applu in
  let timed, wall =
    timed_and_wall (fun () ->
        Mapping.compile ~stream:true Mapping.Base ~machine applu)
  in
  check_bool
    (Printf.sprintf "phases (%.3f s) cover the Base compile (%.3f s)" timed
       wall)
    true
    (timed >= 0.8 *. wall)

let test_port_shapes () =
  let p = fig5_program 256 in
  let c = Mapping.compile Mapping.Combined ~machine p in
  let target = Machines.harpertown ~scale:64 () in
  let ported = Mapping.port c ~machine:target in
  List.iter
    (fun phase -> check_int "8 streams" 8 (Array.length phase))
    ported.Mapping.phases;
  (* Porting preserves every access. *)
  let count phases =
    List.fold_left
      (fun acc phase -> Array.fold_left (fun a s -> a + Engine.stream_length s) acc phase)
      0 phases
  in
  check_int "accesses preserved" (count c.Mapping.phases) (count ported.Mapping.phases);
  let stats = Mapping.simulate ported in
  check_bool "runs" true (stats.Stats.cycles > 0)

let test_serial_baseline () =
  let p = fig5_program 64 in
  let stats = Mapping.simulate_serial ~machine p in
  let nest = List.hd (Program.parallel_nests p) in
  check_int "serial accesses" (Nest.trip_count nest * 4) stats.Stats.total_accesses

let test_topology_beats_base_on_fig5 () =
  (* The headline effect on the paper's own example loop. *)
  let p = fig5_program 1024 in
  let base = Mapping.run Mapping.Base ~machine p in
  let topo = Mapping.run Mapping.Topology_aware ~machine p in
  check_bool "topology-aware wins" true
    (topo.Stats.cycles < base.Stats.cycles)

(* --- Optimal ---------------------------------------------------------- *)

let test_optimal_not_worse () =
  let p = fig5_program 256 in
  let combined = Mapping.run Mapping.Combined ~machine p in
  let result = Optimal.search ~budget:60 ~exhaustive_limit:10 ~machine p in
  (* The whole-group local search cannot use the splits Combined's
     balancing performs, so allow a modest margin. *)
  check_bool "optimal close to or better than combined" true
    (float_of_int result.Optimal.stats.Stats.cycles
     <= 1.10 *. float_of_int combined.Stats.cycles);
  check_bool "spent evaluations" true (result.Optimal.evaluations > 0)

(* --- additional behaviour tests -------------------------------------- *)

let test_alpha_beta_extremes () =
  (* Extreme alpha/beta weights must still produce complete, legal
     schedules (they only change the picking order). *)
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  let dg = Dep_graph.create (Array.length groups) in
  List.iter
    (fun (alpha, beta) ->
      let sched = Schedule.run ~alpha ~beta machine assignment dg in
      let total =
        Array.fold_left
          (fun a gs -> a + total_groups_iters gs)
          0 (Schedule.per_core sched)
      in
      check_int
        (Printf.sprintf "complete at a=%.1f b=%.1f" alpha beta)
        (Array.fold_left (fun a gs -> a + total_groups_iters gs) 0 assignment)
        total)
    [ (0., 0.); (1., 0.); (0., 1.); (1., 1.) ]

let test_port_oversubscription () =
  (* Porting a 12-core mapping to an 8-core machine oversubscribes
     cores round-robin; porting to a larger machine leaves cores idle. *)
  let p = fig5_program 256 in
  let c = Mapping.compile Mapping.Topology_aware ~machine p in
  let smaller = Machines.harpertown ~scale:64 () in
  let ported = Mapping.port c ~machine:smaller in
  List.iter
    (fun phase ->
      check_int "8 streams" 8 (Array.length phase))
    ported.Mapping.phases;
  let bigger = Machines.arch_i ~scale:64 () in
  let ported_up = Mapping.port c ~machine:bigger in
  List.iter
    (fun phase ->
      check_int "16 streams" 16 (Array.length phase);
      (* Cores 12..15 receive nothing. *)
      for core = 12 to 15 do
        check_int "idle core" 0 (Engine.stream_length phase.(core))
      done)
    ported_up.Mapping.phases

let test_serial_nest_runs_on_core0 () =
  (* A non-parallel nest executes serially on core 0 regardless of the
     scheme. *)
  let d = 1 in
  let i = Affine.var d 0 in
  let wr = Reference.make ~array_name:"A" ~subs:[| i |] ~kind:Reference.Write in
  let serial_nest =
    Nest.make ~name:"serial" ~index_names:[| "i" |]
      ~domain:(Domain.box [| (0, 99) |])
      ~body:[ Stmt.assign wr (Expr.const 1.) ]
      ~parallel:false
  in
  let p =
    Program.make ~name:"mixed"
      ~arrays:[ Array_decl.make ~name:"A" ~dims:[| 100 |] ~elem_size:8 ]
      ~nests:[ serial_nest ]
  in
  let c = Mapping.compile Mapping.Combined ~machine p in
  match c.Mapping.phases with
  | [ phase ] ->
      check_int "core 0 has the work" 100 (Engine.stream_length phase.(0));
      for core = 1 to 11 do
        check_int "others idle" 0 (Engine.stream_length phase.(core))
      done
  | _ -> Alcotest.fail "expected exactly one phase"

let test_auto_block () =
  let p = fig5_program 256 in
  let params = { Mapping.default_params with auto_block = true } in
  let c = Mapping.compile ~params Mapping.Topology_aware ~machine p in
  let info = List.hd c.Mapping.infos in
  (* The chosen block size must keep the most aggressive group's
     footprint within L1 (or be the smallest candidate). *)
  check_bool "block size chosen" true (info.Mapping.used_block_size > 0);
  check_bool "power of two" true
    (info.Mapping.used_block_size land (info.Mapping.used_block_size - 1) = 0)

let test_map_topo_differs_from_machine () =
  (* Figure 20's level-subset versions: the mapper sees a truncated
     topology but the phases run on the full machine. *)
  let p = fig5_program 256 in
  let truncated = Topology.truncate_levels 2 machine in
  let c = Mapping.compile ~map_topo:truncated Mapping.Topology_aware ~machine p in
  check_int "cores unchanged" 12
    (match c.Mapping.phases with
    | phase :: _ -> Array.length phase
    | [] -> 0);
  let stats = Mapping.simulate c in
  check_bool "simulates" true (stats.Stats.cycles > 0)

let test_base_plus_never_beaten_by_plain_permutation () =
  (* Base+ searches tile candidates including the untiled permuted
     order, so it can only match or beat it. *)
  let p = Ctam_workloads.Kernel.small_program Ctam_workloads.Suite.mesa in
  let bp = Mapping.run Mapping.Base_plus ~machine p in
  let b = Mapping.run Mapping.Base ~machine p in
  check_bool "base+ <= base * 1.001 on a transpose" true
    (float_of_int bp.Stats.cycles <= 1.001 *. float_of_int b.Stats.cycles)

let test_dynamic_sched () =
  (* Dynamic central-queue scheduling executes every access exactly
     once and, lacking affinity, does not beat the topology-aware
     mapping on a sharing-heavy kernel (the paper's section 5 remark). *)
  let p = fig5_program 512 in
  let nest = List.hd (Program.parallel_nests p) in
  let d = Dynamic_sched.run ~machine p in
  check_int "all accesses" (Nest.trip_count nest * 4) d.Stats.total_accesses;
  (* Dispatch overhead is monotone: a costlier queue pull can only
     slow execution down. *)
  let cheap = Dynamic_sched.run ~steal_cost:10 ~machine p in
  let dear = Dynamic_sched.run ~steal_cost:5000 ~machine p in
  check_bool "steal cost is paid" true
    (dear.Stats.cycles > cheap.Stats.cycles)

let test_scheme_names () =
  Alcotest.(check (list string))
    "names"
    [ "Base"; "Base+"; "Local"; "TopologyAware"; "Combined" ]
    (List.map Mapping.scheme_name Mapping.all_schemes)

(* --- Tuning knobs: degenerate weights, validation, tile bound --------- *)

let test_degenerate_weights () =
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  let dg = Dep_graph.create (Array.length groups) in
  let ids s =
    Array.to_list
      (Array.map (List.map (fun g -> g.Iter_group.id)) (Schedule.per_core s))
  in
  List.iter
    (fun (alpha, beta) ->
      let s1 = Schedule.run ~alpha ~beta machine assignment dg in
      let s2 = Schedule.run ~alpha ~beta machine assignment dg in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "deterministic at a=%g b=%g" alpha beta)
        (ids s1) (ids s2);
      check_bool "deps respected" true (Schedule.respects_deps s1 dg);
      Array.iteri
        (fun c gs ->
          check_int
            (Printf.sprintf "core %d iterations at a=%g b=%g" c alpha beta)
            (total_groups_iters assignment.(c))
            (total_groups_iters gs))
        (Schedule.per_core s1))
    [ (0., Schedule.default_beta); (Schedule.default_alpha, 0.); (0., 0.) ]

let test_zero_weights_tiebreak () =
  (* With a = b = 0 every candidate scores 0, so the scheduler's
     tie-break — the smallest [Iterset.min_key], i.e. sequential
     iteration order — fully determines each pick: within every round
     each core's groups appear in ascending min-key order.  (The very
     first pick of a domain's lead core in round 0 uses the
     fewest-ones rule instead, so it is excluded.) *)
  let _, grouping = groups_of (fig5_program 256) in
  let groups = grouping.Tags.groups in
  let assignment = Distribute.run machine groups in
  let dg = Dep_graph.create (Array.length groups) in
  let s = Schedule.run ~alpha:0. ~beta:0. machine assignment dg in
  check_bool "scheduled something" true (s.Schedule.rounds <> []);
  List.iteri
    (fun r round ->
      Array.iteri
        (fun c gs ->
          let keys =
            List.map (fun g -> Iterset.min_key g.Iter_group.iters) gs
          in
          let keys = if r = 0 then match keys with [] -> [] | _ :: t -> t
                     else keys in
          check_bool
            (Printf.sprintf "round %d core %d picks in min-key order" r c)
            true
            (keys = List.sort compare keys))
        round)
    s.Schedule.rounds

let test_params_validation () =
  check_bool "default params valid" true
    (Mapping.validate_params Mapping.default_params = Ok ());
  let p = fig5_program 64 in
  let rejects msg params =
    Alcotest.check_raises msg (Invalid_argument ("Mapping.compile: " ^ msg))
      (fun () -> ignore (Mapping.compile ~params Mapping.Combined ~machine p))
  in
  rejects "alpha must be a non-negative number (got -1)"
    { Mapping.default_params with alpha = -1. };
  rejects "alpha must be a non-negative number (got nan)"
    { Mapping.default_params with alpha = Float.nan };
  rejects "beta must be a non-negative number (got -0.5)"
    { Mapping.default_params with beta = -0.5 };
  rejects "balance_threshold must be positive (got 0)"
    { Mapping.default_params with balance_threshold = 0. };
  rejects "balance_threshold must be positive (got -2)"
    { Mapping.default_params with balance_threshold = -2. };
  rejects "block_size must be positive (got 0)"
    { Mapping.default_params with block_size = 0 };
  rejects "tile_edge must be positive (got 0)"
    { Mapping.default_params with tile_edge = Some 0 };
  rejects "tile_edge must be positive (got -8)"
    { Mapping.default_params with tile_edge = Some (-8) }

let prop_choose_tile_footprint =
  (* d-deep nest of n^d iterations touching [nrefs] distinct arrays:
     the chosen edge must keep the tile footprint within half the L1
     (or a single iteration when even that does not fit), including
     the degenerate 1-point nest. *)
  let arb =
    QCheck.(
      quad (int_range 1 3) (int_range 1 9) (int_range 64 32768)
        (int_range 1 6))
  in
  QCheck.Test.make ~name:"choose_tile stays within the L1 footprint bound"
    ~count:300 arb
    (fun (d, n, l1_bytes, nrefs) ->
      let subs = Array.init d (fun i -> Affine.var d i) in
      let names = List.init nrefs (fun i -> Printf.sprintf "A%d" i) in
      let refs =
        List.mapi
          (fun i name ->
            Reference.make ~array_name:name ~subs
              ~kind:(if i = 0 then Reference.Write else Reference.Read))
          names
      in
      let body =
        [
          Stmt.assign (List.hd refs)
            (List.fold_left
               (fun e r -> Expr.add e (Expr.load r))
               (Expr.load (List.hd refs))
               (List.tl refs));
        ]
      in
      let nest =
        Nest.make ~name:"q"
          ~index_names:(Array.init d (fun i -> Printf.sprintf "i%d" i))
          ~domain:(Domain.box (Array.make d (0, n - 1)))
          ~body ~parallel:true
      in
      let arrays =
        List.map
          (fun name -> Array_decl.make ~name ~dims:(Array.make d n) ~elem_size:8)
          names
      in
      let p = Program.make ~name:"q" ~arrays ~nests:[ nest ] in
      let layout = Layout.of_program ~align:64 p in
      let per_iter =
        List.fold_left
          (fun acc r ->
            acc + (Layout.decl layout r.Reference.array_name).Array_decl.elem_size)
          0 (Nest.refs nest)
      in
      let t = Tiling.choose_tile ~l1_bytes layout nest in
      let rec ipow b e = if e = 0 then 1 else b * ipow b (e - 1) in
      t >= 1 && t <= 256
      && per_iter * ipow t d <= max (l1_bytes / 2) per_iter)

let () =
  Alcotest.run "core"
    [
      ( "distribute",
        [
          Alcotest.test_case "partition preserved" `Quick
            test_distribute_partition_preserved;
          Alcotest.test_case "balanced" `Quick test_distribute_balanced;
          Alcotest.test_case "cluster_into" `Quick test_cluster_into;
          Alcotest.test_case "weights" `Quick test_balance_respects_weights;
          Alcotest.test_case "affinity quality" `Quick
            test_distribute_affinity_quality;
          QCheck_alcotest.to_alcotest prop_cluster_into_matches_oracle;
          QCheck_alcotest.to_alcotest prop_balance_matches_oracle;
          Alcotest.test_case "mesa pinned" `Slow test_distribute_mesa_pinned;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "preserves groups" `Quick
            test_schedule_preserves_groups;
          Alcotest.test_case "respects deps" `Quick test_schedule_respects_deps;
          Alcotest.test_case "quantum" `Quick test_schedule_quantum;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "block partition" `Quick test_block_partition;
          Alcotest.test_case "default assignment" `Quick test_default_assignment;
        ] );
      ( "chunk oracle",
        [
          QCheck_alcotest.to_alcotest prop_chunks_match_oracle;
          Alcotest.test_case "suite kernels" `Quick
            test_suite_chunks_match_oracle;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "permute stride" `Quick test_permute_stride;
          Alcotest.test_case "tiling apply" `Quick test_tiling_apply;
          Alcotest.test_case "choose tile" `Quick test_choose_tile_bounds;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "schemes cover" `Quick test_compile_all_schemes_cover;
          Alcotest.test_case "deterministic" `Quick test_simulate_deterministic;
          Alcotest.test_case "streamed == dense" `Quick
            test_stream_compile_matches_dense;
          Alcotest.test_case "deadline stops compile and simulate" `Quick
            test_deadline_stops_compile_and_simulate;
          Alcotest.test_case "port" `Quick test_port_shapes;
          Alcotest.test_case "serial" `Quick test_serial_baseline;
          Alcotest.test_case "fig5 wins" `Quick test_topology_beats_base_on_fig5;
        ] );
      ( "stream oracle",
        [
          Alcotest.test_case "suite nests" `Quick
            test_suite_builders_match_oracle;
          QCheck_alcotest.to_alcotest prop_builders_match_oracle;
          Alcotest.test_case "compiled phases" `Quick
            test_compiled_phases_match_oracle;
        ] );
      ( "optimal",
        [ Alcotest.test_case "not worse" `Quick test_optimal_not_worse ] );
      ( "behaviour",
        [
          Alcotest.test_case "alpha/beta extremes" `Quick
            test_alpha_beta_extremes;
          Alcotest.test_case "port oversubscription" `Quick
            test_port_oversubscription;
          Alcotest.test_case "serial nest" `Quick test_serial_nest_runs_on_core0;
          Alcotest.test_case "auto block" `Quick test_auto_block;
          Alcotest.test_case "map topo != machine" `Quick
            test_map_topo_differs_from_machine;
          Alcotest.test_case "base+ sanity" `Quick
            test_base_plus_never_beaten_by_plain_permutation;
          Alcotest.test_case "dynamic scheduling" `Quick test_dynamic_sched;
          Alcotest.test_case "scheme names" `Quick test_scheme_names;
          Alcotest.test_case "timings on the wall clock" `Quick
            test_timings_on_wall_clock;
        ] );
      ( "tuning knobs",
        [
          Alcotest.test_case "degenerate weights" `Quick
            test_degenerate_weights;
          Alcotest.test_case "zero-weight tiebreak" `Quick
            test_zero_weights_tiebreak;
          Alcotest.test_case "params validation" `Quick test_params_validation;
          QCheck_alcotest.to_alcotest prop_choose_tile_footprint;
        ] );
    ]
