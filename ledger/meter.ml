(* Clocks, order statistics and process probes shared by the workloads,
   the layer probes and the record comparator. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least a [q] share of the
   samples at or below it.  A run repeats a fixed multiset of operations
   a varying number of times, and this quantile of k copies of a
   multiset does not depend on k. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The middle sample, or the mean of the middle two. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by Python's default
   [statistics.quantiles(data, n=4)] ("exclusive" method), so the spread
   the record comparator reports is the one the acceptance rule
   computes.  A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

(* Median of [reps] timings of [f], each timing covering as many calls
   as fill [min_s] seconds (calibrated on the first timing), divided
   by the calls made: seconds per call. *)
let per_call ?(reps = 5) ?(min_s = 0.02) f =
  let calls_for target =
    let rec grow n =
      let (), dt = time (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done) in
      if dt >= target || n >= 1 lsl 24 then (n, dt) else grow (n * 2)
    in
    grow 1
  in
  let n, _ = calls_for min_s in
  median
    (List.init reps (fun _ ->
         let (), dt =
           time (fun () ->
               for _ = 1 to n do
                 ignore (Sys.opaque_identity (f ()))
               done)
         in
         dt /. float_of_int n))

(* --- host-speed normalization ---------------------------------------------- *)

(* The hosts this ledger runs on share their cores with other tenants,
   and their speed drifts by tens of percent over a few seconds while
   the process stays on-CPU (so CPU time drifts as much as wall time).
   A fixed reference kernel, timed between operations, tracks that
   drift: every time the ledger reports is scaled by
   [nominal_reference / reference measured around it], i.e. expressed
   at the host speed where the kernel takes [nominal_reference].  The
   kernel touches no project code and allocates nothing, so a change to
   the library cannot move it: it never triggers a collection, and so
   never pays for garbage an operation left behind.  Raw times are kept
   in the run document next to the scaled ones. *)

(* Three parts, each standing for a kind of work the workloads do:
   integers formatted as decimal digits into a reused buffer (branches
   and arithmetic); small records written in sequence through a 2 MB
   arena and read back shortly after, as the allocator does with the
   minor heap; and membership probes of a hash table (hashing and
   pointer chasing).  Each part alone tracked some workloads and not
   others; the three together were the best compromise over all four
   (the README has the numbers).  Random read-modify-writes over a large
   array were left out: they drifted in ways no workload shared. *)
let digits = Bytes.create 24
let table = Array.init 256 (fun i -> (i * 2654435761) land 0xffff)
let arena = Array.make (1 lsl 18) 0

let probed =
  let h = Hashtbl.create 65536 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7) i
  done;
  h

let format_digits () =
  let acc = ref 0 in
  for i = 1 to 70_000 do
    let v = ref (i * 7919) and len = ref 0 in
    while !v > 0 do
      Bytes.unsafe_set digits !len (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10;
      incr len
    done;
    acc := !acc + Char.code (Bytes.unsafe_get digits 0) + !len + table.((!acc + i) land 255)
  done;
  !acc

let fill_arena () =
  let mask = Array.length arena - 1 in
  let acc = ref 0 and pos = ref 0 in
  for i = 1 to 150_000 do
    let p = !pos in
    Array.unsafe_set arena p (i * 7919);
    Array.unsafe_set arena ((p + 1) land mask) !acc;
    Array.unsafe_set arena ((p + 2) land mask) (i lxor p);
    pos := (p + 3) land mask;
    let q = (p - (3 * (1 + (i land 7)))) land mask in
    acc :=
      !acc + Array.unsafe_get arena q
      + if Array.unsafe_get arena ((q + 1) land mask) land 1 = 0 then 1 else 3
  done;
  !acc

let probe_table () =
  let acc = ref 0 in
  for i = 1 to 25_000 do
    if Hashtbl.mem probed (i * 3) then incr acc
  done;
  !acc

let reference_kernel () = format_digits () + fill_arena () + probe_table ()

(* A fixed unit: about the kernel's median time on the 2-vCPU host that
   recorded the baseline. *)
let nominal_reference = 5.5e-3

let reference () = snd (time (fun () -> Sys.opaque_identity (reference_kernel ())))

(* Fisher-Yates over a copy, driven by the workload seed. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Peak resident set (VmHWM) of a process, in MiB.  Linux exposes it in
   /proc; elsewhere the ledger's own major-heap peak stands in. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let from_proc () =
    In_channel.with_open_text path (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      let st = Gc.quick_stat () in
      float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let nproc () = Domain.recommended_domain_count ()
