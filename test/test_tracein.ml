(* Tests for the trace-driven frontend: Lackey-dialect line parsing,
   the counting pass, address transforms (rebase / fold / line
   splitting), round-robin vs tagged multi-core interleaving, strict
   vs lossy error handling with line positions, and the contract that
   the streaming cursors, the materialized arrays, and Ingest.run all
   describe the same access sequence (including under set sampling
   and gzip compression). *)

open Ctam_cachesim
open Ctam_tracein

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let tmp_trace text =
  let path = Filename.temp_file "ctam-trace" ".trace" in
  write_file path text;
  path

(* --- Lackey.parse_line ------------------------------------------------- *)

let rec_ok ?core ?time kind addr size =
  Ok (Some { Lackey.kind; addr; size; core; time })

let test_parse_forms () =
  let cases =
    [
      ("I  0x40001000,4", rec_ok Lackey.Instr 0x40001000 4);
      (" L 0x1000,8", rec_ok Lackey.Load 0x1000 8);
      (" S 0x1040,8", rec_ok Lackey.Store 0x1040 8);
      (" M 0x1080,4", rec_ok Lackey.Modify 0x1080 4);
      (* Lackey prints bare hex; size defaults to 1. *)
      ("L ff10,2", rec_ok Lackey.Load 0xff10 2);
      ("R 0x20", rec_ok Lackey.Load 0x20 1);
      ("W 0x1100", rec_ok Lackey.Store 0x1100 1);
      (* Multi-core extension: CORE: prefix and @TIME suffix. *)
      ("1: L 0x2000,8 @5", rec_ok ~core:1 ~time:5 Lackey.Load 0x2000 8);
      ("0: W 40 @0", rec_ok ~core:0 ~time:0 Lackey.Store 0x40 1);
      (* Noise, not malformed: blank, comments, Valgrind chatter. *)
      ("", Ok None);
      ("   ", Ok None);
      ("# a comment", Ok None);
      ("==1234== lackey trace", Ok None);
      ("--1234-- warning", Ok None);
    ]
  in
  List.iter
    (fun (line, expect) ->
      check_bool (Printf.sprintf "parse %S" line) true
        (Lackey.parse_line line = expect))
    cases;
  List.iter
    (fun line ->
      check_bool
        (Printf.sprintf "reject %S" line)
        true
        (match Lackey.parse_line line with Error _ -> true | Ok _ -> false))
    [ " X 0xnonsense"; "L"; "L 0xzz,4"; "L 0x10,q"; "9x: L 0x10" ]

(* --- differential tests against the oracle parser --------------------- *)

module O = Lackey_oracle

let of_oracle : (O.record option, string) result -> _ = function
  | Ok None -> Ok None
  | Error e -> Error e
  | Ok (Some (r : O.record)) ->
      let kind =
        match r.kind with
        | O.Instr -> Lackey.Instr
        | O.Load -> Lackey.Load
        | O.Store -> Lackey.Store
        | O.Modify -> Lackey.Modify
      in
      Ok
        (Some
           { Lackey.kind; addr = r.addr; size = r.size; core = r.core;
             time = r.time })

let show_parsed = function
  | Ok None -> "noise"
  | Error e -> "Error " ^ e
  | Ok (Some (r : Lackey.record)) ->
      let opt = function None -> "-" | Some v -> string_of_int v in
      Printf.sprintf "addr=0x%x size=%d core=%s time=%s" r.addr r.size
        (opt r.core) (opt r.time)

(* Numbers as traces write them, and as they should not: plain runs,
   leading zeros, signs, underscores, radix prefixes, the empty token,
   and runs past max_int. *)
let gen_dec =
  QCheck.Gen.(
    frequency
      [
        (6, map string_of_int (int_range 0 4096));
        (1, map string_of_int (int_range (-5) 0));
        (1, map (fun n -> "0" ^ string_of_int n) (int_range 0 99));
        (1, map (fun n -> "+" ^ string_of_int n) (int_range 0 99));
        (1, map (fun n -> "1_" ^ string_of_int n) (int_range 0 99));
        (1, map (Printf.sprintf "0x%x") (int_range 0 4096));
        (1, oneofl [ ""; "_1"; "0b101"; "0o17"; "0u9"; "1e3"; "x" ]);
        (1, map (fun n -> String.make n '0' ^ "7") (int_range 15 22));
        ( 1,
          oneofl
            [
              "999999999999999999"; "4611686018427387903";
              "4611686018427387904"; "99999999999999999999";
            ] );
      ])

(* Addresses of 1–17 hex digits, many of them close to 2^62 (where
   [int] runs out) or to 2^64. *)
let gen_hex_body =
  QCheck.Gen.(
    let near_limit =
      oneofl
        [
          "3fffffffffffffff"; "4000000000000000"; "3ffffffffffffff0";
          "7fffffffffffffff"; "8000000000000000"; "ffffffffffffffff";
          "10000000000000000"; "0ffffffffffffffff"; "00000000000000001";
          "fffffffffffffff"; "3FFFFFFFFFFFFFFF";
        ]
    in
    frequency
      [
        (6, map (Printf.sprintf "%x") (int_range 0 0xfffffff));
        (2, map (Printf.sprintf "%x") (map abs int));
        (2, near_limit);
        ( 2,
          string_size
            ~gen:(oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF")))
            (int_range 1 17) );
        (1, oneofl [ ""; "zz"; "1_0"; "+1"; "-1"; "0x10"; "g" ]);
      ])

let gen_sep = QCheck.Gen.oneofl [ " "; "\t"; "  "; " \t "; "\t\t" ]
let gen_edge =
  QCheck.Gen.oneofl [ ""; ""; " "; "\t"; "\r"; "\012"; " \r"; "\r\n" ]

let gen_record =
  QCheck.Gen.(
    let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
    let* kind =
      frequency
        [
          (8, oneofl [ "I"; "L"; "S"; "M"; "R"; "W" ]);
          (1, oneofl [ "X"; "l"; "LL"; "@1"; "3:"; "#" ]);
        ]
    in
    let* prefix = oneofl [ ""; ""; "0x"; "0X" ] in
    let* body = gen_hex_body in
    let* size = opt gen_dec in
    let* core = opt (map (fun d -> d ^ ":") gen_dec) in
    let* time = opt (map (fun d -> "@" ^ d) gen_dec) in
    let* extra = opt (oneofl [ "x"; "0x10"; "@"; "1:"; "," ]) in
    let operand =
      prefix ^ body ^ match size with None -> "" | Some s -> "," ^ s
    in
    let tokens =
      Option.to_list core
      @ (kind :: operand :: Option.to_list extra)
      @ Option.to_list time
    in
    let* seps = list_repeat (List.length tokens - 1) gen_sep in
    let* lead = gen_edge in
    let* trail = gen_edge in
    let joined =
      List.hd tokens ^ String.concat "" (List.map2 ( ^ ) seps (List.tl tokens))
    in
    return (lead ^ joined ^ trail))

let gen_byte =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            (List.of_seq
               (String.to_seq "ILSMRW0123456789abcdefx,:@#=- \t\r\012")) );
        (1, char);
      ])

(* One of: the line unchanged, a truncation, or one byte replaced,
   inserted or deleted. *)
let mutate s =
  QCheck.Gen.(
    let n = String.length s in
    let splice i drop ins =
      String.sub s 0 i ^ ins ^ String.sub s (i + drop) (n - i - drop)
    in
    if n = 0 then map (String.make 1) gen_byte
    else
      frequency
        [
          (3, return s);
          (2, map (fun k -> String.sub s 0 k) (int_range 0 (n - 1)));
          ( 2,
            map2
              (fun i c -> splice i 1 (String.make 1 c))
              (int_range 0 (n - 1)) gen_byte );
          ( 1,
            map2
              (fun i c -> splice i 0 (String.make 1 c))
              (int_range 0 n) gen_byte );
          (1, map (fun i -> splice i 1 "") (int_range 0 (n - 1)));
        ])

let gen_line =
  QCheck.Gen.(
    frequency
      [ (5, gen_record); (1, string_size ~gen:gen_byte (int_range 0 30)) ]
    >>= mutate)

(* Every parse writes into this one record, so a field left over from
   an earlier line would show. *)
let shared_fields = Lackey.fields ()

let parse_slice pre line post =
  let b = Bytes.of_string (pre ^ line ^ post) in
  let f = shared_fields in
  match Lackey.parse f b (String.length pre) (String.length line) with
  | Lackey.Noise -> Ok None
  | Lackey.Malformed e -> Error e
  | Lackey.Record ->
      let tag v = if v < 0 then None else Some v in
      Ok
        (Some
           { Lackey.kind = f.kind; addr = f.addr; size = f.size;
             core = tag f.core; time = tag f.time })

(* A line, alone and as a slice between junk bytes. *)
let prop_parse_matches_oracle =
  let junk = QCheck.Gen.(string_size ~gen:gen_byte (int_range 0 3)) in
  QCheck.Test.make ~name:"parse matches the oracle and never raises"
    ~count:5000
    (QCheck.make
       ~print:(fun (pre, line, post) ->
         Printf.sprintf "%S between %S and %S" line pre post)
       QCheck.Gen.(triple junk gen_line junk))
    (fun (pre, line, post) ->
      let want = of_oracle (O.parse_line line) in
      let check what got =
        got = want
        || QCheck.Test.fail_reportf "%s: got %s, want %s" what
             (show_parsed got) (show_parsed want)
      in
      match (Lackey.parse_line line, parse_slice pre line post) with
      | whole, slice -> check "parse_line" whole && check "slice" slice
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* --- the counting pass ------------------------------------------------- *)

let sample_trace =
  String.concat "\n"
    [
      "==1234== lackey"; "I 0x40000000,4"; "# warm-up"; " L 0x1000,8";
      " S 0x1040,8"; " M 0x1080,4"; "R 0x20"; "W 0x1100"; "";
    ]

let test_scan_counts () =
  let scan = Ingest.scan Ingest.default (Reader.Text sample_trace) in
  check_int "lines (noise included)" 8 scan.Ingest.scanned_lines;
  (* Every well-formed record counts, including the instruction fetch
     that --instr-off then drops; M expands to 2 accesses. *)
  check_int "records" 6 scan.Ingest.records;
  check_int "malformed" 0 scan.Ingest.malformed;
  check_int "accesses on core 0" 6 scan.Ingest.per_core.(0);
  check_int "min addr" 0x20 scan.Ingest.min_addr;
  check_int "max addr" 0x1100 scan.Ingest.max_addr;
  (* With instruction fetches kept the fetch streams too. *)
  let scan_i =
    Ingest.scan { Ingest.default with Ingest.instr = true }
      (Reader.Text sample_trace)
  in
  check_int "accesses with --instr" 7 scan_i.Ingest.per_core.(0);
  check_int "instr widens the range" 0x40000000 scan_i.Ingest.max_addr

let test_modify_is_load_then_store () =
  let loaded =
    Ingest.load Ingest.default (Reader.Text " M 0x80,4\n")
  in
  check_int "one core" 1 (Array.length loaded);
  check_int "two accesses" 2 (Array.length loaded.(0));
  let a0, w0 = Engine.decode_access loaded.(0).(0) in
  let a1, w1 = Engine.decode_access loaded.(0).(1) in
  check_bool "load first" true (a0 = 0x80 && not w0);
  check_bool "store second" true (a1 = 0x80 && w1)

let test_split_spans () =
  (* A 16-byte access starting 8 bytes before a 64-byte line boundary
     touches two lines; --split emits one access per line. *)
  let opts = { Ingest.default with Ingest.split = Some 64 } in
  let loaded = Ingest.load opts (Reader.Text " L 0x38,16\n S 0x40,8\n") in
  check_int "span split + aligned" 3 (Array.length loaded.(0));
  let addrs =
    Array.to_list (Array.map (fun e -> fst (Engine.decode_access e)) loaded.(0))
  in
  (* The first sub-access keeps the original address; the rest are the
     base addresses of the further lines the span touches. *)
  check_bool "split addresses" true (addrs = [ 0x38; 0x40; 0x40 ])

let test_split_longer_than_chunks () =
  (* A record whose split span fills more than two of the cursor's
     4096-access chunks, then a record after it: every access comes
     out, in order, and the run consumes exactly the scanned count. *)
  let opts = { Ingest.default with Ingest.split = Some 1 } in
  let src = Reader.Text " L 0,10000\n S 0x10,4\n" in
  let expected =
    Array.append
      (Array.init 10000 (fun addr -> Engine.encode_access ~addr ~write:false))
      (Array.init 4 (fun i -> Engine.encode_access ~addr:(0x10 + i) ~write:true))
  in
  Alcotest.(check (array int)) "every access" expected (Ingest.load opts src).(0);
  let machine = Ctam_arch.Machines.dunnington ~scale:16 () in
  let stats, scan = Ingest.run ~machine opts src in
  check_int "scanned" 10004 scan.Ingest.per_core.(0);
  check_int "simulated" 10004 stats.Stats.total_accesses

let test_split_overflow () =
  (* Under --split, a span past max_int, or one covering more than
     max_split_lines lines (10^12 one-byte lines here, which a pass
     once expanded access by access), is malformed: strict mode names
     its line, lossy mode counts it and keeps the other records. *)
  List.iter
    (fun (trace, split) ->
      let opts = { Ingest.default with Ingest.split = Some split } in
      List.iter
        (fun (what, f) ->
          check_bool what true
            (match f () with
            | exception Ingest.Error msg ->
                Astring.String.is_infix ~affix:"line 1:" msg
            | _ -> false))
        [
          ( "strict scan",
            fun () -> ignore (Ingest.scan opts (Reader.Text trace)) );
          ( "strict load",
            fun () -> ignore (Ingest.load opts (Reader.Text trace)) );
        ];
      let lossy = { opts with Ingest.lossy = true } in
      let scan = Ingest.scan lossy (Reader.Text trace) in
      check_int "lossy counts it" 1 scan.Ingest.malformed;
      check_int "the other record survives" 1 scan.Ingest.records;
      check_bool "lossy load" true
        (Ingest.load lossy (Reader.Text trace)
        = [| [| Engine.encode_access ~addr:0x40 ~write:true |] |]);
      (* Without --split the base address alone is replayed. *)
      check_int "no split, no overflow" 2
        (Ingest.scan Ingest.default (Reader.Text trace)).Ingest.records)
    [
      (" L 0x3ffffffffffffff0,100\n S 0x40,8\n", 64);
      (" L 0,1000000000000\n S 0x40,1\n", 1);
    ]

(* The counting pass sizes a split span in O(1).  Its reference
   expands every span access by access, as the cursors do, and finds a
   too-wide span by counting to one past [max_split_lines]. *)
let reference_split_scan ~cores ~split text =
  let per_core = Array.make cores 0 in
  let records = ref 0 and malformed = ref 0 and first_bad = ref 0 in
  let rr = ref 0 and lo = ref max_int and hi = ref (-1) in
  let bad n =
    incr malformed;
    if !first_bad = 0 then first_bad := n
  in
  List.iteri
    (fun i line ->
      match Lackey.parse_line line with
      | Ok None -> ()
      | Error _ -> bad (i + 1)
      | Ok (Some { Lackey.kind; addr; size; _ }) ->
          if addr > max_int - size + 1 then bad (i + 1)
          else begin
            let n = ref 1 and top = ref addr in
            let j = ref ((addr / split) + 1) in
            while
              !j <= (addr + size - 1) / split && !n <= Ingest.max_split_lines
            do
              top := max !top (!j * split);
              incr n;
              incr j
            done;
            if !n > Ingest.max_split_lines then bad (i + 1)
            else begin
              incr records;
              if kind <> Lackey.Instr then begin
                let core = !rr mod cores in
                incr rr;
                let spans = if kind = Lackey.Modify then 2 else 1 in
                per_core.(core) <- per_core.(core) + (spans * !n);
                lo := min !lo addr;
                hi := max !hi !top
              end
            end
          end)
    (String.split_on_char '\n' text);
  ( !records,
    !malformed,
    !first_bad,
    per_core,
    (if !lo = max_int then 0 else !lo),
    !hi )

(* Split records around the bound: sizes of a few bytes, of many
   lines, of about [max_split_lines] lines either side of it, and far
   past it; addresses low, random, and near max_int. *)
let gen_split_trace =
  QCheck.Gen.(
    oneofl [ 1; 2; 7; 64; 4096; 1 lsl 20 ] >>= fun split ->
    let addr =
      frequency
        [
          (3, int_range 0 (1 lsl 20));
          (2, map (fun k -> max_int - k) (int_range 0 (1 lsl 17)));
          (1, int_range 0 max_int);
        ]
    in
    let bound = split * Ingest.max_split_lines in
    let size =
      frequency
        [
          (4, int_range 1 256);
          (2, int_range 1 (1 lsl 18));
          (2, int_range (max 1 (bound - split)) (bound + split));
          (1, oneofl [ 1_000_000_000_000; max_int / 2; max_int ]);
        ]
    in
    let record =
      map3
        (fun k a s -> Printf.sprintf " %c %x,%d" k a s)
        (oneofl [ 'L'; 'S'; 'M'; 'I' ]) addr size
    in
    quad (return split) (int_range 1 4)
      (list_size (int_range 1 12) record)
      bool)

let prop_split_scan_matches_reference =
  QCheck.Test.make ~name:"split scan equals a looping reference" ~count:300
    (QCheck.make
       ~print:(fun (split, cores, lines, _) ->
         Printf.sprintf "split=%d cores=%d\n%s" split cores
           (String.concat "\n" lines))
       gen_split_trace)
    (fun (split, cores, lines, newline) ->
      let text = String.concat "\n" lines ^ if newline then "\n" else "" in
      let opts = { Ingest.default with Ingest.split = Some split; cores } in
      let records, malformed, first_bad, per_core, min_addr, max_addr =
        reference_split_scan ~cores ~split text
      in
      let sc =
        Ingest.scan { opts with Ingest.lossy = true } (Reader.Text text)
      in
      let strict_ok =
        match Ingest.scan opts (Reader.Text text) with
        | strict -> malformed = 0 && strict = sc
        | exception Ingest.Error msg ->
            malformed > 0
            && Astring.String.is_prefix
                 ~affix:(Printf.sprintf "line %d:" first_bad)
                 msg
      in
      strict_ok
      && sc.Ingest.records = records
      && sc.Ingest.malformed = malformed
      && sc.Ingest.per_core = per_core
      && sc.Ingest.min_addr = min_addr
      && sc.Ingest.max_addr = max_addr)

(* --- strict / lossy --------------------------------------------------- *)

let bad_trace = " L 0x1000,8\n S 0x1040,8\n X 0xnonsense\n L 0x1080,4\n"

let test_strict_positions () =
  check_bool "strict raises with the line number" true
    (match Ingest.scan Ingest.default (Reader.Text bad_trace) with
    | exception Ingest.Error msg ->
        Astring.String.is_infix ~affix:"line 3" msg
    | _ -> false)

let test_lossy_counts () =
  let scan =
    Ingest.scan { Ingest.default with Ingest.lossy = true }
      (Reader.Text bad_trace)
  in
  check_int "malformed counted" 1 scan.Ingest.malformed;
  check_int "good records survive" 3 scan.Ingest.records

(* --- interleaving ------------------------------------------------------ *)

let tagged_trace =
  "0: L 0x100,4 @1\n1: L 0x200,4 @1\n0: S 0x100,4 @2\n L 0x300,4\n"

let test_round_robin_deals () =
  let opts = { Ingest.default with Ingest.cores = 2 } in
  let scan = Ingest.scan opts (Reader.Text tagged_trace) in
  (* Round-robin ignores the tags and deals in arrival order. *)
  check_int "core 0" 2 scan.Ingest.per_core.(0);
  check_int "core 1" 2 scan.Ingest.per_core.(1)

let test_tagged_deals () =
  let opts =
    { Ingest.default with Ingest.cores = 2; Ingest.interleave = Ingest.Tagged }
  in
  let scan = Ingest.scan opts (Reader.Text tagged_trace) in
  (* Tags rule; the untagged record lands on core 0. *)
  check_int "core 0" 3 scan.Ingest.per_core.(0);
  check_int "core 1" 1 scan.Ingest.per_core.(1)

let test_tagged_strict_rejects () =
  let opts =
    { Ingest.default with Ingest.cores = 2; Ingest.interleave = Ingest.Tagged }
  in
  check_bool "out-of-range tag" true
    (match Ingest.scan opts (Reader.Text "5: L 0x10,4\n") with
    | exception Ingest.Error _ -> true
    | _ -> false);
  check_bool "backwards per-core time" true
    (match
       Ingest.scan opts (Reader.Text "0: L 0x10,4 @9\n0: L 0x20,4 @3\n")
     with
    | exception Ingest.Error _ -> true
    | _ -> false);
  (* Round-robin does not interpret tags, so the same lines pass. *)
  let rr = { opts with Ingest.interleave = Ingest.Round_robin } in
  check_int "round-robin ignores tags" 2
    (Ingest.scan rr (Reader.Text "5: L 0x10,4\n0: L 0x20,4 @3\n")).Ingest
      .records

(* --- streams == load == run ------------------------------------------- *)

let big_trace =
  let buf = Buffer.create 4096 in
  let seed = ref 123456789 in
  let rnd () =
    seed := (!seed * 1103515245) + 12345;
    (!seed lsr 7) land 0xffff
  in
  for i = 0 to 499 do
    let k = if i mod 3 = 0 then "S" else "L" in
    Buffer.add_string buf
      (Printf.sprintf " %s 0x%x,%d\n" k (0x10000 + rnd ()) (1 + (i mod 8)))
  done;
  Buffer.contents buf

let machine () = Ctam_arch.Machines.dunnington ~scale:16 ()

let test_streams_match_load () =
  let opts = { Ingest.default with Ingest.cores = 2 } in
  let src = Reader.Text big_trace in
  let loaded = Ingest.load opts src in
  let forced = Engine.force_phase (Ingest.streams opts src) in
  check_int "same core count" (Array.length loaded) (Array.length forced);
  Array.iteri
    (fun i dense ->
      check_bool
        (Printf.sprintf "core %d identical" i)
        true (dense = forced.(i)))
    loaded;
  (* And running the cursors through the engine equals running the
     dense arrays: the streaming path changes nothing observable. *)
  let m = machine () in
  let dense_phase =
    Array.init m.Ctam_arch.Topology.num_cores (fun i ->
        if i < Array.length loaded then loaded.(i) else [||])
  in
  let st_dense = Engine.run (Hierarchy.create m) [ dense_phase ] in
  let st_run, scan = Ingest.run ~machine:m opts src in
  check_int "scan agrees with load" (Array.length loaded.(0))
    scan.Ingest.per_core.(0);
  check_bool "stats identical" true (st_dense = st_run)

let test_sample_sets_compose () =
  (* The sampled skip scan over the cursors' chunks must agree with
     sampling a dense replay of the same trace. *)
  let opts = { Ingest.default with Ingest.cores = 2 } in
  let src = Reader.Text big_trace in
  (* Full-size caches: sample_sets must divide every cache's set
     count, and the scaled-down machines get too small. *)
  let m = Ctam_arch.Machines.dunnington ~scale:1 () in
  let loaded = Ingest.load opts src in
  let dense_phase =
    Array.init m.Ctam_arch.Topology.num_cores (fun i ->
        if i < Array.length loaded then loaded.(i) else [||])
  in
  let st_dense =
    Engine.run (Hierarchy.create ~sample_sets:8 m) [ dense_phase ]
  in
  let st_stream, _ = Ingest.run ~sample_sets:8 ~machine:m opts src in
  check_bool "sampled stats identical" true (st_dense = st_stream)

let test_stale_scan () =
  (* A scan of a different trace than the one replayed: every mode
     takes exactly the scanned count.  A replay that ends first raises
     (a set-sampled run once spun forever), and a longer one is cut at
     the count (a set-sampled run once read past it). *)
  let records n =
    String.concat ""
      (List.init n (fun i -> Printf.sprintf " L 0x%x,8\n" (0x10000 + (i * 72))))
  in
  let m = Ctam_arch.Machines.dunnington ~scale:1 () in
  let replay ~scanned ~replayed sample_sets =
    let opts = Ingest.default in
    let sc = Ingest.scan opts (Reader.Text (records scanned)) in
    let strs = Ingest.streams ~scan:sc opts (Reader.Text (records replayed)) in
    let phase =
      Array.init m.Ctam_arch.Topology.num_cores (fun i ->
          if i < Array.length strs then strs.(i) else Engine.dense [||])
    in
    Ctam_util.Deadline.within ~ms:5000 (fun () ->
        Engine.run_streams (Hierarchy.create ~sample_sets m) [ phase ])
  in
  List.iter
    (fun sample_sets ->
      let mode = Printf.sprintf "sample_sets %d" sample_sets in
      check_bool (mode ^ ": short replay raises Ingest.Error") true
        (match replay ~scanned:200 ~replayed:100 sample_sets with
        | exception Ingest.Error _ -> true
        | _ -> false);
      check_int (mode ^ ": long replay cut at the scan") 100
        (replay ~scanned:100 ~replayed:200 sample_sets).Stats.total_accesses)
    [ 1; 16 ]

(* --- the shared replay --------------------------------------------------- *)

(* A naive one-pass dealer written from [Lackey.parse_line] and the
   options' definitions: every core's encoded accesses, in order.  It
   expects strict traces to be well-formed. *)
let oracle_deal (o : Ingest.options) text =
  let dealt = ref [] and rr = ref 0 in
  List.iter
    (fun line ->
      match Lackey.parse_line line with
      | Ok None | Error _ -> ()
      | Ok (Some r) -> (
          let lines =
            match o.Ingest.split with
            | None -> Some [ r.Lackey.addr ]
            | Some l ->
                if r.addr > max_int - r.size + 1 then None
                else
                  let first = r.addr / l and last = (r.addr + r.size - 1) / l in
                  if last - first + 1 > Ingest.max_split_lines then None
                  else
                    Some
                      (r.addr
                      :: List.init (last - first) (fun i ->
                             (first + 1 + i) * l))
          in
          let core =
            match o.Ingest.interleave with
            | Ingest.Round_robin -> Some (!rr mod o.Ingest.cores)
            | Ingest.Tagged -> (
                match r.core with
                | None -> Some 0
                | Some c when c < o.Ingest.cores -> Some c
                | Some _ -> None)
          in
          match (lines, core) with
          | Some lines, Some c when r.kind <> Lackey.Instr || o.Ingest.instr ->
              incr rr;
              let span write =
                List.iter (fun a -> dealt := (c, a, write) :: !dealt) lines
              in
              if r.kind = Lackey.Modify then begin
                span false;
                span true
              end
              else span (r.kind = Lackey.Store)
          | _ -> ()))
    (String.split_on_char '\n' text);
  let dealt = List.rev !dealt in
  let base =
    if o.Ingest.rebase then
      List.fold_left (fun m (_, a, _) -> min m a) max_int dealt
    else 0
  in
  let mask =
    match o.Ingest.fold_bits with Some b -> (1 lsl b) - 1 | None -> max_int
  in
  let module V = Ctam_util.Int_vec in
  let per_core = Array.init o.Ingest.cores (fun _ -> V.create ()) in
  List.iter
    (fun (c, a, write) ->
      V.push per_core.(c)
        (Engine.encode_access ~addr:((a - base) land mask) ~write))
    dealt;
  Array.map (fun (v : V.t) -> V.sub v 0 v.length) per_core

(* [big] modifies of 65536 bytes, each 2 x 65536 accesses under
   [split 1], dealt to core 0 before any of core 1's [small] records:
   waiting for its first chunk, core 1 deals core 0 past the queue
   budget. *)
let skewed_lines ~tagged ~cores ~big ~small =
  let tag c = if tagged then Printf.sprintf "%d:" c else "" in
  if tagged then
    List.init big (fun i -> Printf.sprintf "%s M %x,65536" (tag 0) (i * 65536))
    @ List.init small (fun i ->
          Printf.sprintf "%s L %x,8" (tag 1) (0x4000000 + (64 * i)))
  else
    (* Round-robin: core 0 takes the big records, the others small ones. *)
    List.concat
      (List.init big (fun i ->
           Printf.sprintf " M %x,65536" (i * 65536)
           :: List.init (cores - 1) (fun j ->
                  Printf.sprintf " L %x,8"
                    (0x4000000 + (64 * ((i * cores) + j))))))

let gen_replay_case =
  QCheck.Gen.(
    int_range 1 4 >>= fun cores ->
    bool >>= fun tagged ->
    bool >>= fun lossy ->
    frequency [ (4, return `Small); (1, return `Skewed); (1, return `Long) ]
    >>= fun shape ->
    let skewed = shape = `Skewed && cores > 1 in
    let split =
      if skewed then return (Some 1)
      else oneofl [ None; None; Some 1; Some 8; Some 64 ]
    in
    split >>= fun split ->
    triple bool bool (oneofl [ None; Some 12; Some 20 ])
    >>= fun (instr, rebase, fold_bits) ->
    let tag =
      if not tagged then return ""
      else
        frequency
          [
            (1, return "");
            (6, map (Printf.sprintf "%d:") (int_range 0 (cores - 1)));
            ( (if lossy then 1 else 0),
              map (Printf.sprintf "%d:") (int_range cores 9) );
          ]
    in
    let size = frequency [ (10, int_range 1 16); (1, int_range 1 10000) ] in
    let record =
      map3
        (fun t (k, a) s -> Printf.sprintf "%s %c %x,%d" t k a s)
        tag
        (pair (oneofl [ 'I'; 'L'; 'L'; 'S'; 'M' ]) (int_range 0 (1 lsl 24)))
        size
    in
    let line =
      frequency
        [
          (12, record);
          (1, return "# note");
          ((if lossy then 1 else 0), return " X junk");
        ]
    in
    list_size (int_range 0 120) line >>= fun lines ->
    (* Long: one- or two-access records, several chunks per core. *)
    pair (int_range (cores * 4096) (cores * 12288)) (int_range 0 1_000_000)
    >>= fun (n, seed) ->
    let lines =
      if skewed then skewed_lines ~tagged ~cores ~big:3 ~small:8 @ lines
      else if shape = `Long then
        List.init n (fun i ->
            let h = (i * 7919) + seed in
            Printf.sprintf "%s %c %x,8"
              (if tagged then Printf.sprintf "%d:" (h * 31 mod cores) else "")
              (if h mod 5 = 0 then 'M' else 'L')
              (64 * (h mod 4099)))
        @ lines
      else lines
    in
    list_size (int_range 0 40)
      (pair (int_range 0 (cores - 1))
         (frequency [ (6, return false); (1, return true) ]))
    >>= fun schedule ->
    (* Skewed: core 0 holds a chunk when core 1 deals it past the budget. *)
    let schedule = if skewed then (0, false) :: schedule else schedule in
    return
      ( {
          Ingest.cores;
          instr;
          lossy;
          fold_bits;
          rebase;
          split;
          interleave = (if tagged then Ingest.Tagged else Ingest.Round_robin);
        },
        String.concat "\n" lines ^ "\n",
        schedule ))

(* The cursors of one replay, driven by a random schedule of refills
   and resets across cores, then drained in turn: each core receives
   exactly its oracle accesses, in order.  A chunk is read only when
   its core next refills or resets, after the other cores' refills
   have dealt into the queues. *)
let prop_replay_matches_oracle =
  QCheck.Test.make ~name:"replay equals a one-pass dealer" ~count:60
    (QCheck.make
       ~print:(fun ((o : Ingest.options), text, schedule) ->
         let opt = function Some v -> string_of_int v | None -> "-" in
         Printf.sprintf
           "cores=%d %s instr=%b lossy=%b rebase=%b fold=%s split=%s\n\
            %s\nschedule: %s"
           o.cores
           (Ingest.interleave_to_string o.interleave)
           o.instr o.lossy o.rebase (opt o.fold_bits) (opt o.split)
           (if String.length text > 2000 then String.sub text 0 2000 ^ "..."
            else text)
           (String.concat " "
              (List.map
                 (fun (c, r) ->
                   Printf.sprintf "%s%d" (if r then "reset" else "refill") c)
                 schedule)))
       gen_replay_case)
    (fun (opts, text, schedule) ->
      let module V = Ctam_util.Int_vec in
      let want = oracle_deal opts text in
      let src = Reader.Text text in
      let sc = Ingest.scan opts src in
      if sc.Ingest.per_core <> Array.map Array.length want then
        QCheck.Test.fail_report "the scan disagrees with the oracle";
      let curs =
        Array.map
          (function Engine.Gen c -> c | Engine.Dense _ -> assert false)
          (Ingest.streams ~scan:sc opts src)
      in
      Array.iter (fun (c : Engine.cursor) -> c.reset ()) curs;
      let got = Array.map (fun _ -> V.create ()) curs in
      let pending = Array.map (fun _ -> ([||], 0)) curs in
      let flush c =
        let buf, n = pending.(c) in
        for i = 0 to n - 1 do
          V.push got.(c) buf.(i)
        done;
        pending.(c) <- ([||], 0);
        let v = got.(c) in
        for i = 0 to v.V.length - 1 do
          if v.V.data.(i) <> want.(c).(i) then
            QCheck.Test.fail_reportf "core %d: access %d differs" c i
        done
      in
      let taken c = got.(c).V.length + snd pending.(c) in
      let refill c =
        let left = curs.(c).Engine.length - taken c in
        if left > 0 then begin
          flush c;
          let buf, n = curs.(c).Engine.refill () in
          pending.(c) <- (buf, min n left)
        end
      in
      List.iter
        (fun (c, reset) ->
          if reset then begin
            flush c;
            V.clear got.(c);
            curs.(c).Engine.reset ()
          end
          else refill c)
        schedule;
      let busy = ref true in
      while !busy do
        busy := false;
        Array.iteri
          (fun c (cur : Engine.cursor) ->
            if taken c < cur.length then begin
              refill c;
              busy := true
            end)
          curs
      done;
      Array.iteri (fun c _ -> flush c) curs;
      Array.for_all2 (fun (v : V.t) w -> V.sub v 0 v.length = w) got want)

(* Words allocated so far: [Gc.counters]'s minor count lags the minor
   heap, [Gc.minor_words] does not. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_skewed_replay_memory () =
  (* Core 0's queue would hold all of its accesses before core 1's
     first record; the budget caps it, whatever the trace's length.  A
     queue passes the budget by at most one record (here 2 x 65536
     accesses) before it is dropped, the fallback reader's queue takes
     a record too, and a growing queue allocates twice what it holds:
     without the budget, this replay allocates over 8 M words. *)
  let opts =
    {
      Ingest.default with
      Ingest.cores = 2;
      interleave = Ingest.Tagged;
      split = Some 1;
    }
  in
  let m = machine () in
  let src =
    Reader.Text
      (String.concat "\n" (skewed_lines ~tagged:true ~cores:2 ~big:20 ~small:8)
      ^ "\n")
  in
  let sc = Ingest.scan opts src in
  let strs = Ingest.streams ~scan:sc opts src in
  let phase =
    Array.init m.Ctam_arch.Topology.num_cores (fun i ->
        if i < 2 then strs.(i) else Engine.dense [||])
  in
  let h = Hierarchy.create m in
  let before = allocated () in
  let st = Engine.run_streams h [ phase ] in
  let words = allocated () -. before in
  check_int "every access" (sc.Ingest.per_core.(0) + sc.Ingest.per_core.(1))
    st.Stats.total_accesses;
  check_bool "core 0 is past eight budgets" true
    (sc.Ingest.per_core.(0) > 8 * Ingest.queue_budget);
  let bound = 8 * Ingest.queue_budget in
  if words > float_of_int bound then
    Alcotest.failf "the replay allocated %.0f words, over the bound %d" words
      bound

let test_fallback_resumes () =
  (* Core 0 takes one chunk; core 1 then deals core 0's queue past the
     budget, so core 0 finishes on a reader of its own that re-reads
     the trace and must skip the chunk it has handed out. *)
  let opts =
    {
      Ingest.default with
      Ingest.cores = 2;
      interleave = Ingest.Tagged;
      split = Some 1;
    }
  in
  let src =
    Reader.Text
      (String.concat "\n" (skewed_lines ~tagged:true ~cores:2 ~big:3 ~small:8)
      ^ "\n")
  in
  let expected c i =
    if c = 1 then
      Engine.encode_access
        ~addr:(0x4000000 + (64 * (i / 8)) + (i mod 8))
        ~write:false
    else
      let r = i / 131072 and k = i mod 131072 in
      Engine.encode_access
        ~addr:((r * 65536) + (k mod 65536))
        ~write:(k >= 65536)
  in
  let curs =
    Array.map
      (function Engine.Gen c -> c | Engine.Dense _ -> assert false)
      (Ingest.streams opts src)
  in
  Array.iter (fun (c : Engine.cursor) -> c.reset ()) curs;
  let taken = [| 0; 0 |] in
  let pull c =
    let buf, n = curs.(c).Engine.refill () in
    let n = min n (curs.(c).Engine.length - taken.(c)) in
    for i = 0 to n - 1 do
      if buf.(i) <> expected c (taken.(c) + i) then
        Alcotest.failf "core %d: access %d differs" c (taken.(c) + i)
    done;
    taken.(c) <- taken.(c) + n
  in
  pull 0;
  check_bool "core 0 holds a chunk" true (taken.(0) > 0);
  List.iter
    (fun c ->
      while taken.(c) < curs.(c).Engine.length do
        pull c
      done)
    [ 1; 0 ];
  check_int "core 0's accesses" (3 * 131072) taken.(0);
  check_int "core 1's accesses" 64 taken.(1)

let test_wide_replay () =
  (* 4,096 records over 2,048 cores: buffers sized to each core's two
     accesses, not a 4,096-access chunk each. *)
  let cores = 2048 and records = 4096 in
  let opts = { Ingest.default with Ingest.cores } in
  let src =
    Reader.Text
      (String.concat ""
         (List.init records (fun i -> Printf.sprintf " L %x,8\n" (64 * i))))
  in
  let sc = Ingest.scan opts src in
  let before = allocated () in
  let loaded = Ingest.load ~scan:sc opts src in
  let words = allocated () -. before in
  check_bool "every core its two accesses" true
    (Array.for_all Fun.id
       (Array.mapi
          (fun c a ->
            a
            = Array.map
                (fun r -> Engine.encode_access ~addr:(64 * r) ~write:false)
                [| c; c + cores |])
          loaded));
  let bound = 64 * records in
  if words > float_of_int bound then
    Alcotest.failf "the replay allocated %.0f words, over the bound %d" words
      bound

let test_fold_and_rebase () =
  let src = Reader.Text " L 0xdeadb000,8\n S 0xdeadb040,8\n L 0xdeadf000,4\n" in
  (* Rebase pulls the trace down to offset 0. *)
  let rebased =
    Ingest.load { Ingest.default with Ingest.rebase = true } src
  in
  let addrs c = Array.map (fun e -> fst (Engine.decode_access e)) c in
  check_bool "rebased to zero" true
    (addrs rebased.(0) = [| 0x0; 0x40; 0x4000 |]);
  (* Folding wraps into a 2^bits window (after rebasing). *)
  let folded =
    Ingest.load
      { Ingest.default with Ingest.rebase = true; Ingest.fold_bits = Some 12 }
      src
  in
  check_bool "folded into 4K" true
    (Array.for_all (fun a -> a < 4096) (addrs folded.(0)));
  check_bool "low bits preserved" true (addrs folded.(0) = [| 0x0; 0x40; 0x0 |])

let test_run_rejects_too_many_cores () =
  let m = machine () in
  let opts =
    { Ingest.default with Ingest.cores = m.Ctam_arch.Topology.num_cores + 1 }
  in
  check_bool "more trace cores than machine cores" true
    (match Ingest.run ~machine:m opts (Reader.Text " L 0x10,4\n") with
    | exception Ingest.Error _ -> true
    | _ -> false)

(* --- sources ----------------------------------------------------------- *)

let gzip_available () = Sys.command "gzip --version > /dev/null 2>&1" = 0

let test_gzip_roundtrip () =
  if not (gzip_available ()) then ()
  else
    let path = tmp_trace big_trace in
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists path then Sys.remove path;
        if Sys.file_exists (path ^ ".gz") then Sys.remove (path ^ ".gz"))
      (fun () ->
        let plain = Ingest.load Ingest.default (Reader.File path) in
        check_int "gzip ok" 0
          (Sys.command (Printf.sprintf "gzip -f %s" (Filename.quote path)));
        (* Detection is by magic bytes, not extension. *)
        Sys.rename (path ^ ".gz") path;
        let gz = Ingest.load Ingest.default (Reader.File path) in
        check_bool "compressed == plain" true (gz = plain))

let gzip_copy path =
  check_int "gzip ok" 0
    (Sys.command
       (Printf.sprintf "gzip -c %s > %s" (Filename.quote path)
          (Filename.quote (path ^ ".gz"))));
  path ^ ".gz"

let test_gzip_truncated () =
  (* A cut-off gzip stream decompresses to a prefix of the trace; the
     decompressor's failure must surface, not a shorter replay. *)
  if gzip_available () then begin
    let path = tmp_trace big_trace in
    let cut = path ^ ".cut" in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          [ path; path ^ ".gz"; cut ])
      (fun () ->
        let gz =
          In_channel.with_open_bin (gzip_copy path) In_channel.input_all
        in
        Out_channel.with_open_bin cut (fun oc ->
            Out_channel.output_string oc (String.sub gz 0 300));
        check_bool "truncated gzip raises Sys_error naming the file" true
          (match Ingest.scan Ingest.default (Reader.File cut) with
          | exception Sys_error msg -> Astring.String.is_infix ~affix:cut msg
          | _ -> false))
  end

(* Inputs whose line splitting a block reader could get wrong, each
   with its line count or its strict error. *)
let source_inputs =
  let long n c = String.make n c in
  [
    ("CRLF", " L 0x1000,8\r\n S 0x1040,8\r\n# note\r\n M 0x80,4\r\n", Ok 4);
    ("no final newline", " L 0x1000,8\n S 0x1040,8", Ok 2);
    ("lone CR line", " L 0x1000,8\n\r\n S 0x1040,8\n", Ok 3);
    ("empty", "", Ok 0);
    ("noise only", "==1== lackey\n# comment\n\n--1-- warning\n  \t\n", Ok 5);
    (* Lines several times the reader's 16 KB buffer, one of them a
       record whose size has 150000 leading zeros. *)
    ( "long lines",
      "# " ^ long 200_000 'x' ^ "\n L 0x10," ^ long 150_000 '0' ^ "4\n"
      ^ long 100_000 ' ' ^ " S 0x40,8\n R 0x80",
      Ok 4 );
    ( "strict error",
      long 70_000 ' ' ^ " L 0x10,4\n X bad\n L 0x20,4\n",
      Error "line 2: unknown record kind 'X'" );
    ("big trace", big_trace, Ok 500);
  ]

let test_sources_agree () =
  let opts = { Ingest.default with Ingest.cores = 2 } in
  let observe src =
    let guard f =
      match f () with v -> Ok v | exception Ingest.Error m -> Error m
    in
    ( guard (fun () -> Ingest.scan opts src),
      guard (fun () -> Ingest.load opts src) )
  in
  List.iter
    (fun (name, text, expect) ->
      let path = tmp_trace text in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            [ path; path ^ ".gz" ])
        (fun () ->
          let from_text = observe (Reader.Text text) in
          let outcome =
            match from_text with
            | Ok scan, Ok _ -> Ok scan.Ingest.scanned_lines
            | Error msg, Error msg' when msg = msg' -> Error msg
            | _ -> Alcotest.fail (name ^ ": scan and load disagree")
          in
          check_bool (name ^ ": lines read") true (outcome = expect);
          check_bool (name ^ ": File == Text") true
            (observe (Reader.File path) = from_text);
          if gzip_available () then
            check_bool (name ^ ": gzip File == Text") true
              (observe (Reader.File (gzip_copy path)) = from_text)))
    source_inputs

let test_readers_close () =
  (* A replay closes its readers, here with core 1 idle and the input
     ending in a note after core 0's last access, from a plain and a
     gzipped file: each replay once kept one descriptor (and a
     decompressor) open. *)
  if Sys.file_exists "/proc/self/fd" then begin
    let path =
      tmp_trace
        (String.concat ""
           (List.init 300 (fun i -> Printf.sprintf "0: L 0x%x,8\n" (64 * i)))
        ^ "# end\n")
    in
    let paths =
      if gzip_available () then [ path; gzip_copy path ] else [ path ]
    in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove paths)
      (fun () ->
        let opts =
          { Ingest.default with Ingest.cores = 2; interleave = Ingest.Tagged }
        in
        let fds () = Array.length (Sys.readdir "/proc/self/fd") in
        let before = fds () in
        List.iter
          (fun p ->
            for _ = 1 to 5 do
              ignore (Ingest.run ~machine:(machine ()) opts (Reader.File p))
            done)
          paths;
        check_int "open descriptors" before (fds ()))
  end

let test_fifo_rejected () =
  (* A replay reopens the trace after its scan, and a pipe cannot be
     reopened: a non-regular file is refused up front instead of
     replaying as empty.  [stat] does not open the FIFO, so no writer
     is needed. *)
  let path = Filename.temp_file "ctam-trace" ".fifo" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_bool "FIFO raises Sys_error" true
        (match Ingest.scan Ingest.default (Reader.File path) with
        | exception Sys_error msg ->
            Astring.String.is_infix ~affix:"not a regular file" msg
        | _ -> false))

let test_missing_file () =
  check_bool "missing file raises Sys_error" true
    (match Ingest.scan Ingest.default (Reader.File "/nonexistent/t.trace") with
    | exception Sys_error _ -> true
    | _ -> false)

(* --- the report -------------------------------------------------------- *)

let test_report_json () =
  let m =
    Ctam_arch.Topology.with_policy_spec
      [ (Some 1, Ctam_arch.Policy.Plru) ]
      (machine ())
  in
  let opts = { Ingest.default with Ingest.cores = 2 } in
  let src = Reader.Text big_trace in
  let stats, scan = Ingest.run ~machine:m opts src in
  let text = Ctam_util.Json.to_string (Ingest.report_json ~machine:m opts scan stats) in
  List.iter
    (fun affix ->
      check_bool ("report carries " ^ affix) true
        (Astring.String.is_infix ~affix text))
    [
      {|"schema": "ctam-simtrace-v1"|}; {|"policy": "plru"|};
      {|"malformed": 0|}; {|"interleave": "round-robin"|};
    ];
  check_bool "trace_formats non-empty" true (Ingest.trace_formats <> [])

(* --- ctamap simtrace ------------------------------------------------------ *)

(* [ctamap simtrace] end to end: a mixed-notation trace under per-level
   policies; a malformed line named by its position in strict mode and
   counted in lossy mode, as is a --split span past max_int or over
   65,536 lines (each run bounded, since expanding such a span access by
   access never finished); a truncated gzip trace refused by name; and a
   tagged trace skewed past the replay's queue budget (2^18 accesses),
   which moves core 0 to a reader of its own, replayed the same plain and
   gzipped. *)
let test_cli_simtrace () =
  Harness.with_temp_dir @@ fun dir ->
  let file name text =
    let path = Filename.concat dir name in
    Harness.write_file path text;
    path
  in
  let simtrace ?timeout args =
    Harness.out ?timeout Harness.ctamap ("simtrace" :: args)
  in
  let says what report affixes =
    ignore (Harness.parse_json ~what report);
    List.iter
      (fun affix ->
        check_bool (what ^ " says " ^ affix) true (Harness.contains ~affix report))
      affixes
  in
  let good =
    file "good.trace"
      "==1234== lackey trace\n\
       I  0x40001000,4\n\
      \ L 0x1000,8\n\
      \ S 0x1040,8\n\
      \ M 0x1080,4\n\
       R 0x20\n\
       W 0x1100\n\
       1: L 0x2000,8 @5\n"
  in
  says "mixed notations"
    (simtrace
       [ good; "-m"; "dunnington"; "--cores"; "2"; "--interleave"; "tagged";
         "--policy"; "L1=plru,L2=qlru"; "--json" ])
    [ {|"schema": "ctam-simtrace-v1"|}; {|"policy": "plru"|};
      {|"policy": "qlru"|}; {|"malformed": 0|} ];
  let bad =
    file "bad.trace" " L 0x1000,8\n S 0x1040,8\n X 0xnonsense\n L 0x1080,4\n"
  in
  let strict =
    Harness.refused ~affix:"line 3" Harness.ctamap
      [ "simtrace"; bad; "-m"; "dunnington" ]
  in
  says "lossy"
    (simtrace [ bad; "-m"; "dunnington"; "--lossy"; "--json" ])
    [ {|"malformed": 1|}; {|"records": 3|} ];
  List.iter
    (fun (name, text, split) ->
      let args = [ file name text; "-m"; "dunnington"; "--split"; split ] in
      let r =
        Harness.refused ~timeout:10. ~affix:"line 1" Harness.ctamap
          ("simtrace" :: args)
      in
      check_int (name ^ " exits as a malformed line does") strict.Harness.code
        r.Harness.code;
      says (name ^ " lossy")
        (simtrace ~timeout:10. (args @ [ "--lossy"; "--json" ]))
        [ {|"malformed": 1|} ])
    [
      ("overflow.trace", " L 0x3ffffffffffffff0,100\n", "64");
      ("wide.trace", " L 0,1000000000000\n", "1");
    ];
  let gzip = gzip_available () in
  let gzipped name path = file name (Harness.out "gzip" [ "-c"; path ]) in
  if gzip then begin
    let lines =
      List.init 200 (fun i ->
          Printf.sprintf " L 0x%x,8\n" (4096 + (i * 7919 mod 4096 * 64)))
    in
    let gz = gzipped "200.gz" (file "200.trace" (String.concat "" lines)) in
    let cut = file "cut.gz" (String.sub (Harness.read_file gz) 0 300) in
    ignore
      (Harness.refused ~affix:"cut.gz" Harness.ctamap
         [ "simtrace"; cut; "-m"; "dunnington" ])
  end;
  let b = Buffer.create (1 lsl 22) in
  for i = 0 to 299_999 do
    Printf.bprintf b "0: L %x,8\n" (4096 + (i mod 65536 * 64))
  done;
  for i = 0 to 999 do
    Printf.bprintf b "1: S %x,8\n" (4096 + (i * 7919 mod 4096 * 64))
  done;
  let skewed = file "skewed.trace" (Buffer.contents b) in
  let replay path =
    simtrace
      [ path; "-m"; "dunnington"; "--interleave"; "tagged"; "--cores"; "2";
        "--json" ]
  in
  let plain = replay skewed in
  check_bool "every record on its core" true
    (Harness.contains ~affix:{|"per_core":[300000,1000]|}
       (String.concat ""
          (String.split_on_char ' '
             (String.concat "" (String.split_on_char '\n' plain)))));
  if gzip then
    Alcotest.(check string) "gzipped = plain" plain
      (replay (gzipped "skewed.gz" skewed))

let () =
  Alcotest.run "tracein"
    [
      ( "lackey",
        [
          Alcotest.test_case "parse forms" `Quick test_parse_forms;
          QCheck_alcotest.to_alcotest prop_parse_matches_oracle;
        ] );
      ( "scan",
        [
          Alcotest.test_case "counts" `Quick test_scan_counts;
          Alcotest.test_case "modify expands" `Quick
            test_modify_is_load_then_store;
          Alcotest.test_case "split spans" `Quick test_split_spans;
          Alcotest.test_case "split longer than chunks" `Quick
            test_split_longer_than_chunks;
          Alcotest.test_case "split overflow" `Quick test_split_overflow;
          QCheck_alcotest.to_alcotest prop_split_scan_matches_reference;
        ] );
      ( "errors",
        [
          Alcotest.test_case "strict positions" `Quick test_strict_positions;
          Alcotest.test_case "lossy counts" `Quick test_lossy_counts;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "FIFO rejected" `Quick test_fifo_rejected;
        ] );
      ( "interleave",
        [
          Alcotest.test_case "round-robin" `Quick test_round_robin_deals;
          Alcotest.test_case "tagged" `Quick test_tagged_deals;
          Alcotest.test_case "tagged strict" `Quick test_tagged_strict_rejects;
        ] );
      ( "streams",
        [
          Alcotest.test_case "cursors == dense" `Quick
            test_streams_match_load;
          Alcotest.test_case "sample sets compose" `Quick
            test_sample_sets_compose;
          Alcotest.test_case "stale scan" `Quick test_stale_scan;
          QCheck_alcotest.to_alcotest prop_replay_matches_oracle;
          Alcotest.test_case "skewed replay memory" `Quick
            test_skewed_replay_memory;
          Alcotest.test_case "fallback resumes" `Quick test_fallback_resumes;
          Alcotest.test_case "wide replay" `Quick test_wide_replay;
          Alcotest.test_case "fold and rebase" `Quick test_fold_and_rebase;
          Alcotest.test_case "core bound" `Quick
            test_run_rejects_too_many_cores;
        ] );
      ( "sources",
        [
          Alcotest.test_case "file == text" `Quick test_sources_agree;
          Alcotest.test_case "gzip" `Quick test_gzip_roundtrip;
          Alcotest.test_case "truncated gzip" `Quick test_gzip_truncated;
          Alcotest.test_case "readers close" `Quick test_readers_close;
        ] );
      ( "report",
        [ Alcotest.test_case "simtrace json" `Quick test_report_json ] );
      ("cli", [ Alcotest.test_case "ctamap simtrace" `Quick test_cli_simtrace ]);
    ]
