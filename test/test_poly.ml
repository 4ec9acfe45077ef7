(* Tests for the polyhedral-lite library: affine expressions,
   constraints, domains, explicit iteration sets and box codegen. *)

open Ctam_poly

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Affine --------------------------------------------------------- *)

let test_affine_eval () =
  let e = Affine.make [| 2; -1 |] 3 in
  check_int "2*4 - 7 + 3" 4 (Affine.eval e [| 4; 7 |]);
  check_int "const" 3 (Affine.eval (Affine.const 2 3) [| 9; 9 |]);
  check_int "var" 7 (Affine.eval (Affine.var 2 1) [| 9; 7 |])

let test_affine_ops () =
  let a = Affine.make [| 1; 2 |] 5 and b = Affine.make [| 3; -2 |] 1 in
  let iv = [| 10; 20 |] in
  check_int "add" (Affine.eval a iv + Affine.eval b iv)
    (Affine.eval (Affine.add a b) iv);
  check_int "sub" (Affine.eval a iv - Affine.eval b iv)
    (Affine.eval (Affine.sub a b) iv);
  check_int "neg" (-Affine.eval a iv) (Affine.eval (Affine.neg a) iv);
  check_int "scale" (3 * Affine.eval a iv) (Affine.eval (Affine.scale 3 a) iv);
  check_int "add_const" (Affine.eval a iv + 7)
    (Affine.eval (Affine.add_const 7 a) iv)

let test_affine_extend () =
  let a = Affine.make [| 1; 2 |] 5 in
  let a3 = Affine.extend 3 a in
  check_int "depth" 3 (Affine.depth a3);
  check_int "same value" (Affine.eval a [| 4; 5 |])
    (Affine.eval a3 [| 4; 5; 99 |]);
  Alcotest.check_raises "cannot shrink"
    (Invalid_argument "Affine.extend: cannot shrink") (fun () ->
      ignore (Affine.extend 1 a))

let test_affine_is_const () =
  check_bool "const" true (Affine.is_const (Affine.const 3 42));
  check_bool "var" false (Affine.is_const (Affine.var 3 0))

let test_affine_pp () =
  let s = Affine.to_string (Affine.make [| 2; 0; -1 |] 3) in
  Alcotest.(check string) "pretty" "2*i0 - i2 + 3" s;
  Alcotest.(check string) "zero" "0" (Affine.to_string (Affine.const 2 0));
  Alcotest.(check string)
    "named" "2*x - z + 3"
    (Affine.to_string ~names:[| "x"; "y"; "z" |] (Affine.make [| 2; 0; -1 |] 3))

let test_affine_eval_mismatch () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Affine.eval: dimension mismatch") (fun () ->
      ignore (Affine.eval (Affine.const 2 0) [| 1 |]))

(* --- Constrnt ------------------------------------------------------- *)

let test_constraints () =
  let d = 2 in
  let x = Affine.var d 0 and y = Affine.var d 1 in
  check_bool "x <= y sat" true (Constrnt.sat (Constrnt.le x y) [| 3; 4 |]);
  check_bool "x <= y unsat" false (Constrnt.sat (Constrnt.le x y) [| 5; 4 |]);
  check_bool "x < y boundary" false (Constrnt.sat (Constrnt.lt x y) [| 4; 4 |]);
  check_bool "eq" true (Constrnt.sat (Constrnt.eq (Affine.sub x y)) [| 4; 4 |]);
  check_bool "between" true
    (Constrnt.sat_all (Constrnt.between (Affine.const d 1) x (Affine.const d 5))
       [| 3; 0 |]);
  check_bool "between out" false
    (Constrnt.sat_all (Constrnt.between (Affine.const d 1) x (Affine.const d 5))
       [| 6; 0 |])

(* --- Domain --------------------------------------------------------- *)

let test_domain_box () =
  let d = Domain.box [| (0, 3); (1, 2) |] in
  check_int "cardinal" 8 (Domain.cardinal d);
  check_bool "mem" true (Domain.mem d [| 2; 1 |]);
  check_bool "not mem" false (Domain.mem d [| 4; 1 |]);
  check_bool "not mem dim" false (Domain.mem d [| 0; 0 |]);
  let pts = Domain.to_list d in
  check_int "to_list length" 8 (List.length pts);
  (* Lexicographic order. *)
  Alcotest.(check (list (array int)))
    "lex order"
    [ [| 0; 1 |]; [| 0; 2 |]; [| 1; 1 |]; [| 1; 2 |] ]
    (List.filteri (fun i _ -> i < 4) pts)

let test_domain_triangular () =
  (* { (i, j) | 0 <= i <= 3, 0 <= j <= i } *)
  let lo = Affine.const 2 0 in
  let hi_i = Affine.const 2 3 in
  let hi_j = Affine.var 2 0 in
  let d = Domain.make ~bounds:[| (lo, hi_i); (lo, hi_j) |] ~guards:[] in
  check_int "triangle 4+3+2+1" 10 (Domain.cardinal d);
  check_bool "diag" true (Domain.mem d [| 2; 2 |]);
  check_bool "above diag" false (Domain.mem d [| 2; 3 |])

let test_domain_guards () =
  let even =
    (* i - 2*(i/2) = 0 cannot be expressed affinely; use i + j <= 3. *)
    Constrnt.le
      (Affine.add (Affine.var 2 0) (Affine.var 2 1))
      (Affine.const 2 3)
  in
  let d = Domain.add_guards [ even ] (Domain.box [| (0, 3); (0, 3) |]) in
  check_int "guarded count" 10 (Domain.cardinal d);
  check_bool "guard holds" true (Domain.mem d [| 1; 2 |]);
  check_bool "guard fails" false (Domain.mem d [| 2; 2 |])

let test_domain_empty () =
  let d = Domain.box [| (0, 3) |] in
  let empty =
    Domain.add_guards
      [ Constrnt.le (Affine.const 1 5) (Affine.var 1 0) ]
      d
  in
  check_bool "is_empty" true (Domain.is_empty empty);
  check_int "cardinal 0" 0 (Domain.cardinal empty);
  check_bool "nonempty" false (Domain.is_empty d)

let test_domain_bad_bounds () =
  (* A lower bound referring to an inner dimension must be rejected. *)
  Alcotest.check_raises "inner ref"
    (Invalid_argument "Domain.make: bound refers to inner dimension")
    (fun () ->
      ignore
        (Domain.make
           ~bounds:[| (Affine.var 2 1, Affine.const 2 5); (Affine.const 2 0, Affine.const 2 5) |]
           ~guards:[]))

(* --- Iterset -------------------------------------------------------- *)

let enc2 () = Iterset.encoder_of_box [| 0; 0 |] [| 9; 9 |]

let test_iterset_encode_roundtrip () =
  let enc = enc2 () in
  List.iter
    (fun iv ->
      Alcotest.(check (array int))
        "roundtrip" iv
        (Iterset.decode enc (Iterset.encode enc iv)))
    [ [| 0; 0 |]; [| 9; 9 |]; [| 3; 7 |] ]

let test_iterset_encode_order () =
  (* Key order must match lexicographic order of vectors. *)
  let enc = enc2 () in
  check_bool "lex order" true
    (Iterset.encode enc [| 1; 9 |] < Iterset.encode enc [| 2; 0 |])

let test_iterset_ops () =
  let enc = enc2 () in
  let s1 = Iterset.of_list enc [ [| 1; 1 |]; [| 2; 2 |]; [| 3; 3 |] ] in
  let s2 = Iterset.of_list enc [ [| 2; 2 |]; [| 4; 4 |] ] in
  check_int "union" 4 (Iterset.cardinal (Iterset.union s1 s2));
  check_int "inter" 1 (Iterset.cardinal (Iterset.inter s1 s2));
  check_int "diff" 2 (Iterset.cardinal (Iterset.diff s1 s2));
  check_bool "mem" true (Iterset.mem s1 [| 2; 2 |]);
  check_bool "not mem" false (Iterset.mem s1 [| 4; 4 |]);
  check_bool "subset" true (Iterset.subset (Iterset.inter s1 s2) s1);
  check_bool "equal self" true (Iterset.equal s1 s1)

let test_iterset_dedup () =
  let enc = enc2 () in
  let s = Iterset.of_list enc [ [| 1; 1 |]; [| 1; 1 |]; [| 2; 0 |] ] in
  check_int "dedup" 2 (Iterset.cardinal s)

let test_iterset_split () =
  let enc = enc2 () in
  let s = Iterset.of_list enc (List.init 7 (fun i -> [| i; 0 |])) in
  let a, b = Iterset.split_at 3 s in
  check_int "left" 3 (Iterset.cardinal a);
  check_int "right" 4 (Iterset.cardinal b);
  check_bool "disjoint" true (Iterset.is_empty (Iterset.inter a b));
  check_bool "cover" true (Iterset.equal (Iterset.union a b) s)

let test_iterset_of_domain () =
  let d = Domain.box [| (2, 4); (1, 3) |] in
  let enc = Iterset.encoder_of_domain d in
  let s = Iterset.of_domain enc d in
  check_int "cardinal" 9 (Iterset.cardinal s);
  check_int "min_key is first" (Iterset.encode enc [| 2; 1 |]) (Iterset.min_key s)

(* --- Codegen -------------------------------------------------------- *)

let test_codegen_box () =
  let d = Domain.box [| (0, 3); (0, 3) |] in
  let enc = Iterset.encoder_of_domain d in
  let s = Iterset.of_domain enc d in
  let cg = Codegen.decompose s in
  check_int "single box" 1 (List.length cg.Codegen.boxes);
  check_int "cardinal" 16 (Codegen.cardinal cg)

let test_codegen_l_shape () =
  (* An L-shaped set cannot be one box; decomposition must cover it
     exactly with disjoint boxes. *)
  let enc = enc2 () in
  let pts =
    List.filter
      (fun (i, j) -> not (i >= 2 && j >= 2))
      (List.concat_map (fun i -> List.map (fun j -> (i, j)) [ 0; 1; 2; 3 ]) [ 0; 1; 2; 3 ])
  in
  let s = Iterset.of_list enc (List.map (fun (i, j) -> [| i; j |]) pts) in
  let cg = Codegen.decompose s in
  check_int "covers exactly" (Iterset.cardinal s) (Codegen.cardinal cg);
  let regen = Iterset.of_list enc (Codegen.enumerate cg) in
  check_bool "same set" true (Iterset.equal regen s);
  check_bool "more than one box" true (List.length cg.Codegen.boxes > 1)

let test_codegen_emit () =
  let enc = Iterset.encoder_of_box [| 0 |] [| 9 |] in
  let s = Iterset.of_list enc (List.init 5 (fun i -> [| i + 2 |])) in
  let cg = Codegen.decompose s in
  let code = Codegen.emit ~names:[| "i" |] ~body:"S(i);" cg in
  check_bool "has for loop" true
    (Astring.String.is_infix ~affix:"for (i = 2; i <= 6; i++)" code)

let collect_gen next =
  (* Drain a lazy point stream, copying each buffer (it is only valid
     until the following [next]). *)
  let out = ref [] in
  let rec go () =
    match next () with
    | None -> List.rev !out
    | Some iv ->
        out := Array.copy iv :: !out;
        go ()
  in
  go ()

let test_domain_to_gen () =
  (* Guard-filtered triangular domain: the odometer must agree with
     [iter] exactly and restart cleanly. *)
  let lo = Affine.const 2 0 and hi_i = Affine.const 2 3 in
  let hi_j = Affine.var 2 0 in
  let guard =
    Constrnt.le
      (Affine.add (Affine.var 2 0) (Affine.var 2 1))
      (Affine.const 2 3)
  in
  let d =
    Domain.add_guards [ guard ]
      (Domain.make ~bounds:[| (lo, hi_i); (lo, hi_j) |] ~guards:[])
  in
  let expected =
    let acc = ref [] in
    Domain.iter (fun iv -> acc := Array.copy iv :: !acc) d;
    List.rev !acc
  in
  check_bool "nonempty" true (expected <> []);
  let gen = Domain.to_gen d in
  check_bool "matches iter" true (collect_gen gen.Domain.next = expected);
  gen.Domain.restart ();
  check_bool "restart replays" true (collect_gen gen.Domain.next = expected);
  (* The empty domain yields nothing. *)
  let empty =
    Domain.add_guards
      [ Constrnt.le (Affine.const 1 1) (Affine.const 1 0) ]
      (Domain.box [| (0, 3) |])
  in
  check_bool "empty domain" true
    (collect_gen (Domain.to_gen empty).Domain.next = [])

(* --- Fm: Fourier-Motzkin ---------------------------------------------- *)

let test_fm_feasible_box () =
  (* 0 <= x <= 5, 0 <= y <= 5, x + y >= 3: feasible. *)
  let sys =
    Fm.make ~num_vars:2
    |> (fun s -> Fm.add_ge s [| 1; 0 |] 0)
    |> (fun s -> Fm.add_ge s [| -1; 0 |] 5)
    |> (fun s -> Fm.add_ge s [| 0; 1 |] 0)
    |> (fun s -> Fm.add_ge s [| 0; -1 |] 5)
    |> fun s -> Fm.add_ge s [| 1; 1 |] (-3)
  in
  check_bool "feasible" true (Fm.rational_feasible sys);
  check_bool "sat point" true (Fm.sat sys [| 2; 2 |]);
  check_bool "unsat point" false (Fm.sat sys [| 0; 0 |])

let test_fm_infeasible () =
  (* x >= 3 and x <= 1. *)
  let sys =
    Fm.make ~num_vars:1
    |> (fun s -> Fm.add_ge s [| 1 |] (-3))
    |> fun s -> Fm.add_le s [| 1 |] (-1)
  in
  check_bool "infeasible" false (Fm.rational_feasible sys);
  (* Equalities: x = 2 and x = 3 conflict. *)
  let sys2 =
    Fm.make ~num_vars:1
    |> (fun s -> Fm.add_eq s [| 1 |] (-2))
    |> fun s -> Fm.add_eq s [| 1 |] (-3)
  in
  check_bool "equality conflict" false (Fm.rational_feasible sys2)

let test_fm_feasibility_status () =
  let sat = Fm.add_ge (Fm.make ~num_vars:1) [| 1 |] 0 in
  check_bool "sat" true (Fm.feasibility sat = Fm.Sat);
  let unsat =
    Fm.make ~num_vars:1
    |> (fun s -> Fm.add_ge s [| 1 |] (-3))
    |> fun s -> Fm.add_le s [| 1 |] (-1)
  in
  check_bool "unsat" true (Fm.feasibility unsat = Fm.Unsat);
  check_bool "rational_feasible agrees" false (Fm.rational_feasible unsat)

let test_fm_cap_maybe_sat () =
  (* Regression: past the 5000-constraint elimination cap the solver
     used to answer a silent, unconditional "feasible".  [feasibility]
     now reports the truncation as [MaybeSat]; [rational_feasible]
     keeps the conservative [true] for its existing callers.  75
     positive and 75 negative x0 rows combine into 5625 constraints on
     the first elimination — enough to hide the plain x1 >= 1, x1 <= 0
     contradiction behind the cap. *)
  let sys = ref (Fm.make ~num_vars:2) in
  for i = 0 to 74 do
    sys := Fm.add_ge !sys [| 1; i + 1 |] 0;
    sys := Fm.add_ge !sys [| -1; i + 1 |] 0
  done;
  sys := Fm.add_ge !sys [| 0; 1 |] (-1);
  sys := Fm.add_ge !sys [| 0; -1 |] 0;
  check_bool "maybe-sat" true (Fm.feasibility !sys = Fm.MaybeSat);
  check_bool "rational_feasible stays conservative" true
    (Fm.rational_feasible !sys)

let test_fm_elimination_projects () =
  (* x = y, 0 <= y <= 4: eliminating x leaves a feasible system on y. *)
  let sys =
    Fm.make ~num_vars:2
    |> (fun s -> Fm.add_eq s [| 1; -1 |] 0)
    |> (fun s -> Fm.add_ge s [| 0; 1 |] 0)
    |> fun s -> Fm.add_ge s [| 0; -1 |] 4
  in
  let projected = Fm.eliminate sys 0 in
  check_bool "still feasible" true (Fm.rational_feasible projected);
  check_bool "x column zeroed" true
    (Fm.num_constraints projected >= 1)

let prop_fm_sound_on_boxes =
  (* For random 2D boxes and a random halfspace, FM feasibility agrees
     with brute-force enumeration over the integer box whenever the
     halfspace boundary is integral. *)
  QCheck.Test.make ~name:"fm agrees with enumeration on boxes" ~count:200
    QCheck.(
      quad (int_range 0 6) (int_range 0 6) (pair (int_range (-3) 3) (int_range (-3) 3))
        (int_range (-10) 10))
    (fun (xmax, ymax, (a, b), k) ->
      let sys =
        Fm.make ~num_vars:2
        |> (fun s -> Fm.add_ge s [| 1; 0 |] 0)
        |> (fun s -> Fm.add_ge s [| -1; 0 |] xmax)
        |> (fun s -> Fm.add_ge s [| 0; 1 |] 0)
        |> (fun s -> Fm.add_ge s [| 0; -1 |] ymax)
        |> fun s -> Fm.add_ge s [| a; b |] k
      in
      let brute = ref false in
      for x = 0 to xmax do
        for y = 0 to ymax do
          if (a * x) + (b * y) + k >= 0 then brute := true
        done
      done;
      (* FM may claim rational feasibility without an integer point,
         but never the reverse. *)
      if !brute then Fm.rational_feasible sys else true)

let prop_fm_infeasible_never_sat =
  QCheck.Test.make ~name:"fm infeasible => no point satisfies" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 6)
           (pair (pair (int_range (-4) 4) (int_range (-4) 4)) (int_range (-8) 8)))
        (pair (int_range (-5) 5) (int_range (-5) 5)))
    (fun (rows, (x, y)) ->
      let sys =
        List.fold_left
          (fun s ((a, b), k) -> Fm.add_ge s [| a; b |] k)
          (Fm.make ~num_vars:2) rows
      in
      if Fm.rational_feasible sys then true else not (Fm.sat sys [| x; y |]))

(* --- property tests ------------------------------------------------- *)

let arb_points =
  QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_range 0 9) (int_range 0 9)))

let prop_codegen_exact =
  QCheck.Test.make ~name:"codegen covers exactly the input set" ~count:100
    arb_points (fun pts ->
      let enc = Iterset.encoder_of_box [| 0; 0 |] [| 9; 9 |] in
      let s = Iterset.of_list enc (List.map (fun (i, j) -> [| i; j |]) pts) in
      let cg = Codegen.decompose s in
      let regen = Iterset.of_list enc (Codegen.enumerate cg) in
      Iterset.equal regen s && Codegen.cardinal cg = Iterset.cardinal s)

let prop_decompose_guarded =
  (* For random guarded domains of depth 0-3 (full box, diagonal cut,
     or a band around the diagonal), the greedy decomposition's boxes
     are pairwise disjoint, cover the input set exactly, and enumerate
     the same keys as the set, order-insensitively. *)
  QCheck.Test.make ~name:"decompose partitions guarded domains" ~count:150
    QCheck.(pair (int_range 0 3) (pair (int_range 0 2) (int_range 2 5)))
    (fun (depth, (guard_kind, size)) ->
      let dom = Domain.box (Array.init depth (fun _ -> (0, size))) in
      let dom =
        if depth = 0 then dom
        else
          let sum = Affine.make (Array.make depth 1) 0 in
          match guard_kind with
          | 0 -> dom
          | 1 ->
              (* sum of indices >= size: a diagonal cut *)
              Domain.add_guards [ Constrnt.ge (Affine.add_const (-size) sum) ]
                dom
          | _ ->
              (* a band: size - 1 <= sum <= size + 1 *)
              Domain.add_guards
                [
                  Constrnt.ge (Affine.add_const (1 - size) sum);
                  Constrnt.ge (Affine.add_const (size + 1) (Affine.neg sum));
                ]
                dom
      in
      let enc = Iterset.encoder_of_domain dom in
      let s = Iterset.of_domain enc dom in
      let cg = Codegen.decompose s in
      let overlap b1 b2 =
        Array.for_all2
          (fun (l1, h1) (l2, h2) -> l1 <= h2 && l2 <= h1)
          b1 b2
      in
      let rec disjoint = function
        | [] -> true
        | b :: rest -> (not (List.exists (overlap b) rest)) && disjoint rest
      in
      let keys_of_boxes =
        List.sort compare
          (List.map (Iterset.encode enc) (Codegen.enumerate cg))
      in
      (* A depth-0 decomposition of the one-point set is a single box. *)
      (if depth = 0 then List.length cg.Codegen.boxes <= 1 else true)
      && disjoint cg.Codegen.boxes
      && Codegen.cardinal cg = Iterset.cardinal s
      && keys_of_boxes = Array.to_list (Iterset.keys s))

let prop_iterset_union_comm =
  QCheck.Test.make ~name:"iterset union commutative" ~count:100
    (QCheck.pair arb_points arb_points) (fun (p1, p2) ->
      let enc = Iterset.encoder_of_box [| 0; 0 |] [| 9; 9 |] in
      let s1 = Iterset.of_list enc (List.map (fun (i, j) -> [| i; j |]) p1) in
      let s2 = Iterset.of_list enc (List.map (fun (i, j) -> [| i; j |]) p2) in
      Iterset.equal (Iterset.union s1 s2) (Iterset.union s2 s1))

let prop_iterset_demorgan =
  QCheck.Test.make ~name:"iterset diff/inter coherence" ~count:100
    (QCheck.pair arb_points arb_points) (fun (p1, p2) ->
      let enc = Iterset.encoder_of_box [| 0; 0 |] [| 9; 9 |] in
      let s1 = Iterset.of_list enc (List.map (fun (i, j) -> [| i; j |]) p1) in
      let s2 = Iterset.of_list enc (List.map (fun (i, j) -> [| i; j |]) p2) in
      let lhs = Iterset.union (Iterset.diff s1 s2) (Iterset.inter s1 s2) in
      Iterset.equal lhs s1)

let prop_affine_linearity =
  QCheck.Test.make ~name:"affine add is pointwise" ~count:100
    QCheck.(
      pair
        (pair (array_of_size (Gen.return 3) (int_range (-5) 5)) (int_range (-10) 10))
        (pair (array_of_size (Gen.return 3) (int_range (-5) 5)) (int_range (-10) 10)))
    (fun ((c1, k1), (c2, k2)) ->
      let a = Affine.make c1 k1 and b = Affine.make c2 k2 in
      let iv = [| 3; -2; 5 |] in
      Affine.eval (Affine.add a b) iv = Affine.eval a iv + Affine.eval b iv)

let () =
  Alcotest.run "poly"
    [
      ( "affine",
        [
          Alcotest.test_case "eval" `Quick test_affine_eval;
          Alcotest.test_case "ops" `Quick test_affine_ops;
          Alcotest.test_case "extend" `Quick test_affine_extend;
          Alcotest.test_case "is_const" `Quick test_affine_is_const;
          Alcotest.test_case "pp" `Quick test_affine_pp;
          Alcotest.test_case "eval mismatch" `Quick test_affine_eval_mismatch;
          QCheck_alcotest.to_alcotest prop_affine_linearity;
        ] );
      ( "constraints",
        [ Alcotest.test_case "relations" `Quick test_constraints ] );
      ( "domain",
        [
          Alcotest.test_case "box" `Quick test_domain_box;
          Alcotest.test_case "triangular" `Quick test_domain_triangular;
          Alcotest.test_case "guards" `Quick test_domain_guards;
          Alcotest.test_case "empty" `Quick test_domain_empty;
          Alcotest.test_case "bad bounds" `Quick test_domain_bad_bounds;
        ] );
      ( "iterset",
        [
          Alcotest.test_case "roundtrip" `Quick test_iterset_encode_roundtrip;
          Alcotest.test_case "key order" `Quick test_iterset_encode_order;
          Alcotest.test_case "set ops" `Quick test_iterset_ops;
          Alcotest.test_case "dedup" `Quick test_iterset_dedup;
          Alcotest.test_case "split" `Quick test_iterset_split;
          Alcotest.test_case "of_domain" `Quick test_iterset_of_domain;
          QCheck_alcotest.to_alcotest prop_iterset_union_comm;
          QCheck_alcotest.to_alcotest prop_iterset_demorgan;
        ] );
      ( "fm",
        [
          Alcotest.test_case "feasible box" `Quick test_fm_feasible_box;
          Alcotest.test_case "infeasible" `Quick test_fm_infeasible;
          Alcotest.test_case "status" `Quick test_fm_feasibility_status;
          Alcotest.test_case "cap maybe-sat" `Quick test_fm_cap_maybe_sat;
          Alcotest.test_case "elimination" `Quick test_fm_elimination_projects;
          QCheck_alcotest.to_alcotest prop_fm_sound_on_boxes;
          QCheck_alcotest.to_alcotest prop_fm_infeasible_never_sat;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "full box" `Quick test_codegen_box;
          Alcotest.test_case "L shape" `Quick test_codegen_l_shape;
          Alcotest.test_case "emit" `Quick test_codegen_emit;
          Alcotest.test_case "Domain.to_gen" `Quick test_domain_to_gen;
          QCheck_alcotest.to_alcotest prop_codegen_exact;
          QCheck_alcotest.to_alcotest prop_decompose_guarded;
        ] );
    ]
