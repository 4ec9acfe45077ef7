(* QCheck generators of small parallel loop nests, shared by the
   grouping oracle properties (test_blocks, test_deps, test_core):
   depth 1-3 with triangular bounds, guards and negative lower bounds;
   identity, transposed, strided and constant subscripts; 1-6
   references over 1-3 arrays, writes included; blocks small enough
   that tags vary.  Arrays are sized to fit every reference, except
   that a [leaves] case pushes one reference past its array's end. *)

open Ctam_poly
open Ctam_ir
open Ctam_blocks

type case = {
  program : Program.t;
  nest : Nest.t;
  leaves : bool;
  block_size : int;
  line : int;
  tile : int array;  (* 1-8 per dimension *)
  max_groups : int;  (* 1-64 *)
  cores : int;  (* 1-24 *)
}

let block_map c =
  fst (Block_map.for_program ~block_size:c.block_size ~line:c.line c.program)

(* One subscript: a constant, or one or two loop indices scaled by a
   stride, plus an offset fixed once the domain is known. *)
let gen_subscript d m =
  let open QCheck.Gen in
  let* kind = int_range 0 5 in
  let* j = int_range 0 (d - 1) in
  let* k = int_range 0 (d - 1) in
  let* stride = oneofl [ 2; 3; -1 ] in
  let coeffs = Array.make d 0 in
  (match kind with
  | 0 -> ()  (* constant *)
  | 1 -> coeffs.(min m (d - 1)) <- 1  (* identity *)
  | 2 -> coeffs.(d - 1 - min m (d - 1)) <- 1  (* transposed *)
  | 3 -> coeffs.(j) <- stride
  | 4 ->
      coeffs.(j) <- 1;
      coeffs.(k) <- coeffs.(k) + 1
  | _ -> coeffs.(j) <- 1);
  let+ c = int_range 0 3 in
  Affine.make coeffs c

let gen_bound d j =
  let open QCheck.Gen in
  let* lo = int_range (-3) 2 in
  let* extent = int_range 0 6 in
  let* outer = int_range 0 (max 0 (j - 1)) in
  let* tri_lo = bool in
  let+ tri_hi = bool in
  let bound tri c =
    if j > 0 && tri then Affine.add_const c (Affine.var d outer)
    else Affine.const d c
  in
  (bound tri_lo lo, bound tri_hi (lo + extent))

let gen_guards d =
  let open QCheck.Gen in
  let* guarded = int_range 0 2 in
  if guarded > 0 then return []
  else
    let* coeffs = array_repeat d (int_range (-1) 1) in
    let+ c = int_range (-2) 4 in
    [ Constrnt.ge (Affine.make coeffs c) ]

let index_range dom sub =
  Domain.fold
    (fun (lo, hi) iv ->
      let v = Affine.eval sub iv in
      (min lo v, max hi v))
    (max_int, min_int) dom

let gen_case =
  let open QCheck.Gen in
  let* d = int_range 1 3 in
  let* bounds = flatten_a (Array.init d (gen_bound d)) in
  let* guards = gen_guards d in
  let dom = Domain.make ~bounds ~guards in
  let* narrays = int_range 1 3 in
  let* ranks = array_repeat narrays (int_range 1 2) in
  let* elem_sizes = array_repeat narrays (oneofl [ 4; 8 ]) in
  let* nrefs = int_range 1 6 in
  let* targets = array_repeat nrefs (int_range 0 (narrays - 1)) in
  let* subs =
    flatten_a
      (Array.map
         (fun a -> flatten_a (Array.init ranks.(a) (gen_subscript d)))
         targets)
  in
  (* Shift every subscript to start at index 0 over the domain. *)
  let empty = Domain.is_empty dom in
  let subs =
    Array.map
      (Array.map (fun s ->
           if empty then s
           else Affine.add_const (-fst (index_range dom s)) s))
      subs
  in
  let* pads = array_repeat narrays (int_range 0 2) in
  let dims =
    Array.init narrays (fun a -> Array.make ranks.(a) (1 + pads.(a)))
  in
  Array.iteri
    (fun r a ->
      Array.iteri
        (fun m s ->
          if not empty then
            dims.(a).(m) <-
              max dims.(a).(m) (snd (index_range dom s) + 1 + pads.(a)))
        subs.(r))
    targets;
  let* leaves = map (fun k -> k = 0 && not empty) (int_range 0 5) in
  let* victim = int_range 0 (nrefs - 1) in
  if leaves then begin
    (* Reach one past the array's end at the reference's last index. *)
    let a = targets.(victim) in
    let s = subs.(victim).(0) in
    subs.(victim).(0) <-
      Affine.add_const (dims.(a).(0) - snd (index_range dom s)) s
  end;
  let name a = Printf.sprintf "A%d" a in
  let reference r kind =
    Reference.make ~array_name:(name targets.(r)) ~subs:subs.(r) ~kind
  in
  (* Statements: each a write after up to two reads, in reference
     order. *)
  let* reads_per_stmt = array_repeat nrefs (int_range 0 2) in
  let rec stmts r s =
    if r >= nrefs then []
    else
      let k = min reads_per_stmt.(s) (nrefs - r - 1) in
      let loads =
        List.init k (fun i -> Expr.load (reference (r + i) Reference.Read))
      in
      let rhs =
        match loads with
        | [] -> Expr.const 1.
        | e :: es -> List.fold_left Expr.add e es
      in
      Stmt.assign (reference (r + k) Reference.Write) rhs
      :: stmts (r + k + 1) (s + 1)
  in
  let nest =
    Nest.make ~name:"gen"
      ~index_names:(Array.init d (Printf.sprintf "i%d"))
      ~domain:dom ~body:(stmts 0 0) ~parallel:true
  in
  let program =
    Program.make ~name:"gen"
      ~arrays:
        (List.init narrays (fun a ->
             Array_decl.make ~name:(name a) ~dims:dims.(a)
               ~elem_size:elem_sizes.(a)))
      ~nests:[ nest ]
  in
  let* block_size = oneofl [ 8; 16; 32; 64; 128 ] in
  let* line = oneofl [ 8; 64 ] in
  let* tile = array_repeat d (int_range 1 8) in
  let* max_groups = int_range 1 64 in
  let+ cores = int_range 1 24 in
  { program; nest; leaves; block_size; line; tile; max_groups; cores }

let show c =
  Fmt.str
    "@[<v>%a@,leaves=%b block=%d line=%d tile=[%s] max_groups=%d cores=%d@]"
    Program.pp c.program c.leaves c.block_size c.line
    (String.concat ";" (Array.to_list (Array.map string_of_int c.tile)))
    c.max_groups c.cores

let arbitrary = QCheck.make ~print:show gen_case

(* The suite kernels at reduced size, with each parallel nest. *)
let suite_nests () =
  List.concat_map
    (fun k ->
      let p = Ctam_workloads.Kernel.small_program k in
      List.map (fun nest -> (k.Ctam_workloads.Kernel.name, p, nest))
        (Program.parallel_nests p))
    Ctam_workloads.Suite.all
