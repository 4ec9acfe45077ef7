open Ctam_poly
open Ctam_ir
open Ctam_blocks
open Ctam_cachesim

let refs_of nest =
  Nest.refs nest
  |> List.map (fun r -> (r, Reference.is_write r))
  |> Array.of_list

(* The accesses of [count] points visited by [iter], one encoded
   access per reference in reference order, polling the request
   deadline as it goes. *)
let expand layout nest ~count iter =
  let refs = refs_of nest in
  let addr_fns = Array.map (fun (r, _) -> Layout.ref_addr_fn layout r) refs in
  let nrefs = Array.length refs in
  let out = Array.make (count * nrefs) 0 in
  let k = ref 0 in
  iter (fun iv ->
      Ctam_util.Deadline.tick ();
      for i = 0 to nrefs - 1 do
        out.(!k + i) <-
          Engine.encode_access ~addr:(addr_fns.(i) iv) ~write:(snd refs.(i))
      done;
      k := !k + nrefs);
  out

let of_iters layout nest iters =
  expand layout nest ~count:(List.length iters) (fun f -> List.iter f iters)

let of_iterset layout nest s =
  let count = Iterset.cardinal s in
  let iv = Array.make (Nest.depth nest) 0 in
  expand layout nest ~count (fun f ->
      for i = 0 to count - 1 do
        Iterset.decode_into s i iv;
        f iv
      done)

let of_group layout nest g = of_iterset layout nest g.Iter_group.iters

let of_groups layout nest gs =
  Array.concat (List.map (of_group layout nest) gs)

(* Lazy variants: wrap a restartable point generator as an
   {!Engine.cursor}, expanding each iteration into one encoded access
   per reference on demand.  The access sequence is identical to the
   eager builders' arrays (asserted by the differential tests), so the
   engine's event order is bit-identical; only materialization
   disappears. *)

let cursor_of_gen layout refs ~count ~next ~restart =
  let nrefs = Array.length refs in
  (* A chunk of ~256 accesses amortizes the generator's odometer and
     closure cost over many accesses.  It holds whole points only
     (capacity a multiple of [nrefs]), keeping the emitted order
     exactly point-major. *)
  let points_per_chunk = max 1 (256 / max 1 nrefs) in
  let buf = Array.make (max 1 (points_per_chunk * nrefs)) 0 in
  (* Address functions precompiled per reference (no table lookup or
     allocation per point — see {!Layout.ref_addr_fn}). *)
  let addr_fns = Array.map (fun (r, _) -> Layout.ref_addr_fn layout r) refs in
  let writes = Array.map snd refs in
  let refill () =
    (* A sampled skip can run through many refills in one engine
       event: each refill ticks the request deadline. *)
    Ctam_util.Deadline.tick ();
    let len = ref 0 in
    let cap = Array.length buf in
    let continue = ref true in
    while !continue && !len + nrefs <= cap do
      match next () with
      | None -> continue := false
      | Some iv ->
          for i = 0 to nrefs - 1 do
            buf.(!len + i) <-
              Engine.encode_access ~addr:(addr_fns.(i) iv) ~write:writes.(i)
          done;
          len := !len + nrefs
    done;
    (buf, !len)
  in
  { Engine.length = count * nrefs; reset = restart; refill }

let stream_of_iters layout nest iters =
  (* The iterations are already materialized (explicit-order chunks);
     the cursor only avoids expanding them into the larger access
     array. *)
  let refs = refs_of nest in
  let pts = Array.of_list iters in
  let idx = ref 0 in
  let next () =
    if !idx >= Array.length pts then None
    else begin
      let p = pts.(!idx) in
      incr idx;
      Some p
    end
  in
  let restart () = idx := 0 in
  Engine.Gen
    (cursor_of_gen layout refs ~count:(Array.length pts) ~next ~restart)

let stream_of_iterset layout nest s =
  let refs = refs_of nest in
  let count = Iterset.cardinal s in
  let iv = Array.make (Nest.depth nest) 0 in
  let idx = ref 0 in
  let next () =
    if !idx >= count then None
    else begin
      Iterset.decode_into s !idx iv;
      incr idx;
      Some iv
    end
  in
  let restart () = idx := 0 in
  Engine.Gen (cursor_of_gen layout refs ~count ~next ~restart)

let stream_of_group layout nest g =
  (* Box decomposition gives a compact closed form of the group's
     iteration set; [Codegen.to_gen] walks it in global lexicographic
     order — the order [Iterset.iter] (hence {!of_group}) uses. *)
  let refs = refs_of nest in
  let s = g.Iter_group.iters in
  let cg = Codegen.decompose s in
  let gen = Codegen.to_gen cg in
  Engine.Gen
    (cursor_of_gen layout refs ~count:(Iterset.cardinal s)
       ~next:gen.Codegen.next ~restart:gen.Codegen.restart)

let stream_of_groups layout nest gs =
  Engine.stream_concat (List.map (stream_of_group layout nest) gs)

let stream_serial layout nest =
  (* No materialization at all: the domain odometer regenerates the
     nest's program order on every run. *)
  let refs = refs_of nest in
  let gen = Domain.to_gen nest.Nest.domain in
  Engine.Gen
    (cursor_of_gen layout refs ~count:(Nest.trip_count nest)
       ~next:gen.Domain.next ~restart:gen.Domain.restart)

let serial layout nest =
  expand layout nest ~count:(Nest.trip_count nest) (fun f ->
      Domain.iter f nest.Nest.domain)
