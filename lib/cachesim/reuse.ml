type histogram = { buckets : int array; cold : int; total : int }

let nbuckets = 44 (* distances up to 2^43 lines *)

let bucket_of d =
  if d <= 0 then 0
  else begin
    (* smallest i with d < 2^i *)
    let rec go i = if d < 1 lsl i then i else go (i + 1) in
    min (nbuckets - 1) (go 1)
  end

(* Fenwick tree over access times: 1 marks the *latest* access time of
   some line; the reuse distance of an access is the number of marks
   strictly between the line's previous access and now. *)
module Fenwick = struct
  type t = { data : int array }

  let create n = { data = Array.make (n + 1) 0 }

  let add t i delta =
    let i = ref (i + 1) in
    while !i < Array.length t.data do
      t.data.(!i) <- t.data.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* Sum of [0..i]. *)
  let prefix t i =
    let i = ref (i + 1) in
    let acc = ref 0 in
    while !i > 0 do
      acc := !acc + t.data.(!i);
      i := !i - (!i land - !i)
    done;
    !acc

  let range t lo hi = if hi < lo then 0 else prefix t hi - prefix t (lo - 1)

  (* A tree over [2n] times from one over [n], [n] a power of two: node
     [i <= n] covers the same times in both, nodes in [(n, 2n)] cover
     only times not yet marked, and node [2n] covers every time, as
     node [n] did. *)
  let double t =
    let n = Array.length t.data - 1 in
    let data = Array.make ((2 * n) + 1) 0 in
    Array.blit t.data 0 data 0 (n + 1);
    data.(2 * n) <- t.data.(n);
    { data }
end

module Online = struct
  module Int_table = Ctam_util.Int_table

  (* [last] maps each line to its latest access, packed as
     [(time lsl core_bits) lor core]: one lookup finds both the reuse
     distance and who touched the line before. *)
  type t = {
    mutable fw : Fenwick.t;
    last : Int_table.t;
    mutable time : int;
    mutable previous_core : int;
  }

  let core_bits = 20

  let create () =
    {
      fw = Fenwick.create 1024;
      last = Int_table.create ();
      time = 0;
      previous_core = -1;
    }

  let touch t ~core line =
    if core < 0 || core lsr core_bits <> 0 then
      invalid_arg "Reuse.Online.touch: core out of range";
    if t.time + 1 >= Array.length t.fw.Fenwick.data - 1 then
      t.fw <- Fenwick.double t.fw;
    let live = Int_table.length t.last in
    let s = Int_table.slot t.last line in
    let prev = Int_table.value t.last s in
    Int_table.set_value t.last s ((t.time lsl core_bits) lor core);
    Fenwick.add t.fw t.time 1;
    t.time <- t.time + 1;
    if prev < 0 then begin
      t.previous_core <- -1;
      -1
    end
    else begin
      (* Every line seen holds one mark, at its latest access time: the
         marks after [t0] are the distinct lines touched since. *)
      let t0 = prev lsr core_bits in
      let d = live - Fenwick.prefix t.fw t0 in
      Fenwick.add t.fw t0 (-1);
      t.previous_core <- prev land ((1 lsl core_bits) - 1);
      d
    end

  let previous_core t = t.previous_core
  let touched t = t.time
end

let of_lines lines =
  let n = Array.length lines in
  let fw = Fenwick.create (n + 1) in
  let last : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let buckets = Array.make nbuckets 0 in
  let cold = ref 0 in
  Array.iteri
    (fun t line ->
      (match Hashtbl.find_opt last line with
      | None -> incr cold
      | Some t0 ->
          let d = Fenwick.range fw (t0 + 1) (t - 1) in
          buckets.(bucket_of d) <- buckets.(bucket_of d) + 1;
          Fenwick.add fw t0 (-1));
      Hashtbl.replace last line t;
      Fenwick.add fw t 1)
    lines;
  { buckets; cold = !cold; total = n }

let of_stream stream ~line =
  if line <= 0 then invalid_arg "Reuse.of_stream: line";
  of_lines
    (Array.map
       (fun e ->
         let addr, _ = Engine.decode_access e in
         addr / line)
       stream)

let hit_ratio_at h ~lines =
  if lines <= 0 then invalid_arg "Reuse.hit_ratio_at";
  let finite = h.total - h.cold in
  if finite <= 0 then 0.
  else begin
    (* Count buckets entirely below [lines]; the straddling bucket is
       included pro-rata at its midpoint. *)
    let hits = ref 0. in
    Array.iteri
      (fun i count ->
        let lo = if i = 0 then 0 else 1 lsl (i - 1) in
        let hi = if i = 0 then 0 else (1 lsl i) - 1 in
        if hi < lines then hits := !hits +. float_of_int count
        else if lo < lines then
          hits :=
            !hits
            +. float_of_int count
               *. (float_of_int (lines - lo) /. float_of_int (hi - lo + 1)))
      h.buckets;
    !hits /. float_of_int finite
  end

let mean_distance h =
  let finite = h.total - h.cold in
  if finite <= 0 then 0.
  else begin
    let acc = ref 0. in
    Array.iteri
      (fun i count ->
        let mid =
          if i = 0 then 0.
          else float_of_int ((1 lsl (i - 1)) + ((1 lsl i) - 1)) /. 2.
        in
        acc := !acc +. (mid *. float_of_int count))
      h.buckets;
    !acc /. float_of_int finite
  end

let merge hs =
  let buckets = Array.make nbuckets 0 in
  let cold = ref 0 and total = ref 0 in
  List.iter
    (fun h ->
      Array.iteri (fun i c -> buckets.(i) <- buckets.(i) + c) h.buckets;
      cold := !cold + h.cold;
      total := !total + h.total)
    hs;
  { buckets; cold = !cold; total = !total }

let pp ppf h =
  Fmt.pf ppf "@[<v>reuse histogram (%d accesses, %d cold):@," h.total h.cold;
  Array.iteri
    (fun i c ->
      if c > 0 then
        if i = 0 then Fmt.pf ppf "  d = 0: %d@," c
        else Fmt.pf ppf "  d in [%d, %d): %d@," (1 lsl (i - 1)) (1 lsl i) c)
    h.buckets;
  Fmt.pf ppf "@]"
