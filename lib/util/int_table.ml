(* Linear probing over 2^bits slots: [cells.(2 * i)] is slot [i]'s key
   ([-1] when empty) and [cells.(2 * i + 1)] its value.  The table
   doubles before it is half full. *)
type t = { mutable cells : int array; mutable bits : int; mutable count : int }

let create () = { cells = Array.make 64 (-1); bits = 5; count = 0 }
let length t = t.count

(* Fibonacci hashing: the top bits of the product depend on every key
   bit, so strided keys (byte addresses) still spread over the slots. *)
let home t k = (k * 0x278DDE6E5FD29F05) lsr (63 - t.bits)

let rec probe cells mask k i =
  let c = Array.unsafe_get cells (2 * i) in
  if c = k || c = -1 then i else probe cells mask k ((i + 1) land mask)

let grow t =
  let old = t.cells in
  t.bits <- t.bits + 1;
  t.cells <- Array.make (2 lsl t.bits) (-1);
  let mask = (1 lsl t.bits) - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k >= 0 then begin
      let j = probe t.cells mask k (home t k) in
      t.cells.(2 * j) <- k;
      t.cells.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done

let rec slot t k =
  if k < 0 then invalid_arg "Int_table.slot: negative key";
  let mask = (1 lsl t.bits) - 1 in
  let i = probe t.cells mask k (home t k) in
  if t.cells.(2 * i) = k then i
  else if 2 * (t.count + 1) > mask + 1 then begin
    grow t;
    slot t k
  end
  else begin
    t.cells.(2 * i) <- k;
    t.cells.((2 * i) + 1) <- -1;
    t.count <- t.count + 1;
    i
  end

let value t i = t.cells.((2 * i) + 1)
let set_value t i v = t.cells.((2 * i) + 1) <- v
