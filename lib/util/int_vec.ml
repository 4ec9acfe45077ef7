type t = { mutable data : int array; mutable length : int }

let create () = { data = Array.make 64 0; length = 0 }
let clear v = v.length <- 0

let push v x =
  if v.length = Array.length v.data then begin
    let data = Array.make (2 * v.length) 0 in
    Array.blit v.data 0 data 0 v.length;
    v.data <- data
  end;
  Array.unsafe_set v.data v.length x;
  v.length <- v.length + 1

let sub v pos len =
  if pos < 0 || len < 0 || pos + len > v.length then invalid_arg "Int_vec.sub";
  Array.sub v.data pos len
