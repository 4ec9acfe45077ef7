(* Tests for the small JSON library backing run reports. *)

open Ctam_util

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let roundtrip v =
  let s = Json.to_string v in
  let v' = parse_ok s in
  Alcotest.(check bool) ("round-trip " ^ s) true (v = v');
  let m = Json.to_string ~minify:true v in
  Alcotest.(check bool) ("minified round-trip " ^ m) true (parse_ok m = v)

let test_print () =
  check_str "minified object" {|{"a":1,"b":[true,null]}|}
    (Json.to_string ~minify:true
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ]));
  check_str "string escaping" {|"a\"b\\c\n"|}
    (Json.to_string ~minify:true (Json.String "a\"b\\c\n"));
  check_str "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_str "float repr" "1.5" (Json.to_string (Json.Float 1.5))

let test_parse () =
  check_bool "int" true (parse_ok "42" = Json.Int 42);
  check_bool "negative float" true (parse_ok "-2.5e1" = Json.Float (-25.0));
  check_bool "escapes" true
    (parse_ok {|"A\t"|} = Json.String "A\t");
  check_bool "surrogate pair" true
    (parse_ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  check_bool "nested" true
    (parse_ok {| { "xs" : [1, 2, {"y": false}] } |}
    = Json.Obj
        [ ("xs", Json.List [ Json.Int 1; Json.Int 2; Json.Obj [ ("y", Json.Bool false) ] ]) ]);
  check_bool "trailing garbage rejected" true
    (Result.is_error (Json.parse "1 2"));
  check_bool "unterminated rejected" true
    (Result.is_error (Json.parse {|{"a": 1|}));
  check_bool "bare word rejected" true (Result.is_error (Json.parse "nope"))

(* RFC 8259 §7: every control character below 0x20 must be escaped in
   output.  Regression test for the report/trace pipeline, which embeds
   program names and DSL snippets in JSON: raw control bytes in a
   string must never reach the output unescaped, and every one must
   survive a round-trip. *)
let test_control_char_escaping () =
  let all_controls = String.init 0x20 Char.chr in
  let s = Json.to_string ~minify:true (Json.String all_controls) in
  String.iter
    (fun c ->
      check_bool
        (Printf.sprintf "no raw control byte 0x%02x in output" (Char.code c))
        false
        (Char.code c < 0x20))
    s;
  check_bool "named escapes used" true
    (Astring.String.is_infix ~affix:{|\n|} s
    && Astring.String.is_infix ~affix:{|\t|} s
    && Astring.String.is_infix ~affix:{|\r|} s
    && Astring.String.is_infix ~affix:{|\b|} s
    && Astring.String.is_infix ~affix:{|\f|} s);
  check_bool "u-escapes for the rest" true
    (Astring.String.is_infix ~affix:{|\u0000|} s
    && Astring.String.is_infix ~affix:{|\u001f|} s);
  check_bool "control chars round-trip" true
    (parse_ok s = Json.String all_controls);
  (* embedded in structure, pretty-printed *)
  roundtrip (Json.Obj [ ("k\x01", Json.String "v\x02\x7f\n") ]);
  (* the parser accepts the escaped forms too *)
  check_bool "parse \\u000b" true
    (parse_ok {|"\u000b"|} = Json.String "\x0b")

(* Regression tests for the \u escape parser.  Two historical bugs:
   the four "hex digits" were once parsed with OCaml integer syntax,
   so forms JSON forbids ("\u12_3") slipped through; and unpaired
   UTF-16 surrogates were UTF-8-encoded as raw surrogate code points,
   producing invalid UTF-8.  Now: exactly four [0-9a-fA-F] digits,
   and any unpaired half decodes to U+FFFD. *)
let test_unicode_escapes () =
  let rejected s =
    check_bool ("rejected " ^ s) true (Result.is_error (Json.parse s))
  in
  rejected {|"\u12_3"|};
  rejected {|"\u0x41"|};
  rejected {|"\u-041"|};
  rejected {|"\u12"|};
  check_bool "uppercase hex" true
    (parse_ok "\"\\u00E9\"" = Json.String "\xc3\xa9");
  let fffd = "\xef\xbf\xbd" (* U+FFFD replacement character *) in
  check_bool "lone high surrogate" true
    (parse_ok {|"\ud800"|} = Json.String fffd);
  check_bool "lone low surrogate" true
    (parse_ok {|"\udc00"|} = Json.String fffd);
  check_bool "high surrogate then text" true
    (parse_ok {|"\ud800x"|} = Json.String (fffd ^ "x"));
  check_bool "high surrogate then non-surrogate escape" true
    (parse_ok "\"\\ud800\\u0041\"" = Json.String (fffd ^ "A"));
  check_bool "high, high, low: the tail still pairs" true
    (parse_ok "\"\\ud83d\\ud83d\\ude00\""
    = Json.String (fffd ^ "\xf0\x9f\x98\x80"));
  check_bool "valid pair still decodes" true
    (parse_ok "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80");
  check_bool "last valid pair" true
    (parse_ok "\"\\udbff\\udfff\"" = Json.String "\xf4\x8f\xbf\xbf");
  (* The output being valid UTF-8 means it survives a print/parse
     round-trip (the printer would otherwise emit broken escapes). *)
  roundtrip (parse_ok "\"\\ud800 \\udfff \\ud83d\\ude00\"")

let test_roundtrip () =
  roundtrip Json.Null;
  roundtrip (Json.Int (-7));
  roundtrip (Json.Float 0.125);
  roundtrip (Json.String "caché θ\n\"quoted\"");
  roundtrip
    (Json.Obj
       [
         ("empty_list", Json.List []);
         ("empty_obj", Json.Obj []);
         ("mix", Json.List [ Json.Bool false; Json.Null; Json.Float 3.5 ]);
       ])

(* Regression: JSON has no infinity, so every non-finite float prints as
   null.  The printer once emitted inf and -inf — text its own parser
   rejects — because only NaN was caught. *)
let test_non_finite_floats () =
  List.iter
    (fun (name, f) ->
      check_str name "null" (Json.to_string (Json.Float f));
      check_str (name ^ ", minified") "null"
        (Json.to_string ~minify:true (Json.Float f)))
    [ ("nan", Float.nan); ("infinity", Float.infinity);
      ("negative infinity", Float.neg_infinity) ];
  check_bool "an infinite member reparses as null" true
    (parse_ok (Json.to_string (Json.Obj [ ("x", Json.Float Float.neg_infinity) ]))
    = Json.Obj [ ("x", Json.Null) ])

(* --- differential tests against the oracle codec ---------------------- *)

module O = Json_oracle

let rec to_oracle : Json.t -> O.t = function
  | Json.Null -> O.Null
  | Json.Bool b -> O.Bool b
  | Json.Int i -> O.Int i
  | Json.Float f -> O.Float f
  | Json.String s -> O.String s
  | Json.List vs -> O.List (List.map to_oracle vs)
  | Json.Obj ms -> O.Obj (List.map (fun (k, v) -> (k, to_oracle v)) ms)

let rec of_oracle : O.t -> Json.t = function
  | O.Null -> Json.Null
  | O.Bool b -> Json.Bool b
  | O.Int i -> Json.Int i
  | O.Float f -> Json.Float f
  | O.String s -> Json.String s
  | O.List vs -> Json.List (List.map of_oracle vs)
  | O.Obj ms -> Json.Obj (List.map (fun (k, v) -> (k, of_oracle v)) ms)

open Json_gen

let show_oracle v = O.to_string ~minify:true (to_oracle v)

let prop_print_matches_oracle =
  QCheck.Test.make ~name:"to_string matches the oracle byte for byte" ~count:500
    (QCheck.make ~print:show_oracle gen_value)
    (fun v ->
      let o = to_oracle v in
      Json.to_string v = O.to_string o
      && Json.to_string ~minify:true v = O.to_string ~minify:true o)

(* The printer keeps its own stack: a value nested 200,000 deep prints
   minified even on the 2 MB stack this group also runs on (test/dune),
   and pretty output of a deep value still matches the oracle's. *)
let test_print_deep () =
  let nest depth wrap =
    let v = ref (Json.Int 0) in
    for _ = 1 to depth do
      v := wrap !v
    done;
    !v
  in
  let depth = 200_000 in
  let repeat s = String.concat "" (List.init depth (fun _ -> s)) in
  check_str "nested arrays"
    (String.make depth '[' ^ "0" ^ String.make depth ']')
    (Json.to_string ~minify:true (nest depth (fun v -> Json.List [ v ])));
  check_str "nested objects"
    (repeat {|{"k":|} ^ "0" ^ String.make depth '}')
    (Json.to_string ~minify:true
       (nest depth (fun v -> Json.Obj [ ("k", v) ])));
  let v =
    nest 300 (fun v -> Json.Obj [ ("a", Json.List [ v; Json.Null ]) ])
  in
  check_str "pretty" (O.to_string (to_oracle v)) (Json.to_string v)

(* JSON text the printer never writes: whitespace everywhere, every
   escape (surrogate halves, pairs and strays included), leading zeros,
   exponents, and integer literals up to 21 digits. *)
let gen_text =
  QCheck.Gen.(
    let ws = string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r' ]) (int_range 0 2) in
    let padded g = map3 (fun a x b -> a ^ x ^ b) ws g ws in
    let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi) in
    let number =
      frequency
        [
          ( 4,
            map4
              (fun sign int frac exp -> sign ^ int ^ frac ^ exp)
              (oneofl [ ""; "-" ]) (digits 1 21)
              (frequency [ (3, return ""); (1, map (( ^ ) ".") (digits 0 4)) ])
              (frequency
                 [
                   (3, return "");
                   ( 1,
                     map3
                       (fun e s d -> e ^ s ^ d)
                       (oneofl [ "e"; "E" ]) (oneofl [ ""; "+"; "-" ]) (digits 0 3) );
                 ]) );
          ( 1,
            oneofl
              [ "4611686018427387903"; "4611686018427387904";
                "-4611686018427387904"; "-4611686018427387905";
                "999999999999999999"; "-999999999999999999";
                "-99999999999999999"; "99999999999999999999"; "-0"; "1e999" ] );
        ]
    in
    let hex4 =
      frequency
        [
          (2, string_size ~gen:(oneofl (String.to_seq "0123456789abcdefABCDEF" |> List.of_seq)) (return 4));
          (3, oneofl [ "d83d"; "DE00"; "dbff"; "dfff"; "d800"; "dc00"; "0041"; "00e9"; "0000"; "001f" ]);
        ]
    in
    let piece =
      frequency
        [
          (4, string_size ~gen:(char_range 'a' 'z') (int_range 1 4));
          (2, oneofl [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|} ]);
          (3, map (( ^ ) {|\u|}) hex4);
          (1, oneofl [ {|\x|}; {|\u12|}; {|\u12_3|}; "\x01"; "\xc3\xa9" ]);
        ]
    in
    let string_lit =
      map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (int_range 0 5) piece)
    in
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           let leaf =
             frequency
               [ (3, number); (3, string_lit); (1, oneofl [ "true"; "false"; "null" ]) ]
           in
           if depth = 0 then padded leaf
           else
             frequency
               [
                 (2, padded leaf);
                 ( 1,
                   map
                     (fun vs -> "[" ^ String.concat "," vs ^ "]")
                     (list_size (int_range 0 4) (padded (self (depth - 1)))) );
                 ( 1,
                   map
                     (fun ms ->
                       "{"
                       ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) ms)
                       ^ "}")
                     (list_size (int_range 0 4)
                        (pair (padded string_lit) (padded (self (depth - 1))))) );
               ]))

let gen_byte =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl (String.to_seq "{}[]\":,\\-+.eE0123456789 tfnul" |> List.of_seq));
        (1, char);
      ])

(* One of: the text unchanged, a truncation, one byte replaced, one
   inserted, or one deleted. *)
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
          (2, return s);
          (2, map (fun k -> String.sub s 0 k) (int_range 0 (n - 1)));
          (2, map2 (fun i c -> splice i 1 (String.make 1 c)) (int_range 0 (n - 1)) gen_byte);
          (1, map2 (fun i c -> splice i 0 (String.make 1 c)) (int_range 0 n) gen_byte);
          (1, map (fun i -> splice i 1 "") (int_range 0 (n - 1)));
        ])

let gen_input =
  QCheck.Gen.(
    frequency
      [
        (2, map2 (fun v minify -> O.to_string ~minify (to_oracle v)) gen_value bool);
        (3, gen_text);
        (1, string_size ~gen:gen_byte (int_range 0 40));
      ]
    >>= mutate)

let prop_parse_matches_oracle =
  QCheck.Test.make ~name:"parse matches the oracle and never raises" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_input)
    (fun s ->
      let show = function
        | Ok v -> "Ok " ^ show_oracle v
        | Error e -> "Error " ^ e
      in
      let got =
        try Json.parse s
        with e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      in
      let want = Result.map of_oracle (O.parse s) in
      got = want
      || QCheck.Test.fail_reportf "got %s, want %s" (show got) (show want))

let test_accessors () =
  let v = parse_ok {|{"a": {"b": [10, 20]}, "f": 2.0}|} in
  check_int "member chain" 20
    (Json.member_exn "a" v |> Json.member_exn "b" |> Json.to_list
    |> fun l -> Json.to_int (List.nth l 1));
  check_bool "missing member" true (Json.member "zzz" v = None);
  Alcotest.(check (float 0.0)) "to_float on int" 10.0
    (Json.member_exn "a" v |> Json.member_exn "b" |> Json.to_list |> List.hd
   |> Json.to_float);
  Alcotest.(check (float 0.0)) "to_float on float" 2.0
    (Json.to_float (Json.member_exn "f" v))

(* Stats.to_json / of_json round-trip (satellite of the Stats work;
   lives here because it exercises the JSON layer end to end). *)
let test_stats_roundtrip () =
  let open Ctam_cachesim in
  let stats =
    {
      Stats.per_level =
        [
          { Stats.level = 1; hits = 100; misses = 10 };
          { Stats.level = 2; hits = 7; misses = 3 };
        ];
      mem_accesses = 3;
      total_accesses = 110;
      cycles = 4242;
      core_cycles = [| 4242; 17; 0 |];
      barriers = 2;
    }
  in
  let stats' = Stats.of_json (Stats.to_json stats) in
  check_bool "round-trip" true (stats = stats');
  (* and through the printer/parser *)
  let reparsed = parse_ok (Json.to_string (Stats.to_json stats)) in
  check_bool "textual round-trip" true (stats = Stats.of_json reparsed);
  check_bool "malformed rejected" true
    (try
       ignore (Stats.of_json (Json.String "nope"));
       false
     with Invalid_argument _ -> true)

(* --- Deadline ---------------------------------------------------------- *)

let expired f =
  match f () with () -> false | exception Deadline.Expired -> true

(* Spin (polling) until the calling domain's deadline passes. *)
let spin_until_expired () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 5. do
    Deadline.check ()
  done

let test_deadline_unset () =
  check_bool "check without a deadline" false (expired Deadline.check);
  check_bool "ticks without a deadline" false
    (expired (fun () ->
         for _ = 1 to 3 * Deadline.stride do
           Deadline.tick ()
         done));
  check_bool "a far deadline has not passed" false
    (expired (fun () -> Deadline.within ~ms:60_000 Deadline.check))

let test_deadline_expires () =
  check_bool "Expired once the deadline passed" true
    (expired (fun () -> Deadline.within ~ms:1 spin_until_expired));
  check_bool "unset again after the scope" false (expired Deadline.check);
  (* Ticks read the clock within one stride, counted across loops:
     many loops shorter than a stride still expire. *)
  check_bool "tick raises within a stride" true
    (expired (fun () ->
         Deadline.within ~ms:1 (fun () ->
             Unix.sleepf 0.005;
             for _ = 1 to Deadline.stride do
               Deadline.tick ()
             done)));
  check_bool "short loops share the countdown" true
    (expired (fun () ->
         Deadline.within ~ms:1 (fun () ->
             Unix.sleepf 0.005;
             for _ = 1 to Deadline.stride do
               for _ = 1 to 3 do
                 Deadline.tick ()
               done
             done)))

let test_deadline_nesting () =
  (* An inner scope cannot outlive the outer one... *)
  check_bool "60 s scope inside a 1 ms scope" true
    (expired (fun () ->
         Deadline.within ~ms:1 (fun () ->
             Deadline.within ~ms:60_000 spin_until_expired)));
  Deadline.within ~ms:60_000 (fun () ->
      (* ...and the outer expiry is back after an inner one, whether
         the inner scope expired, raised or returned. *)
      check_bool "inner scope expires" true
        (expired (fun () -> Deadline.within ~ms:1 spin_until_expired));
      check_bool "outer restored after Expired" false (expired Deadline.check);
      (match Deadline.within ~ms:1 (fun () -> failwith "boom") with
      | () -> Alcotest.fail "no exception"
      | exception Failure _ -> ());
      Unix.sleepf 0.005;
      check_bool "outer restored after another exception" false
        (expired Deadline.check);
      Deadline.within ~ms:1 (fun () -> ());
      Unix.sleepf 0.005;
      check_bool "outer restored after a normal return" false
        (expired Deadline.check));
  check_bool "unset after the outer scope" false (expired Deadline.check)

let test_deadline_domain_local () =
  (* Another domain never sees this domain's deadline. *)
  Deadline.within ~ms:1 (fun () ->
      Unix.sleepf 0.005;
      let other = Domain.spawn (fun () -> expired Deadline.check) in
      check_bool "other domain unaffected" false (Domain.join other);
      check_bool "this domain expired" true (expired Deadline.check))

let () =
  Alcotest.run "util"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_print;
          Alcotest.test_case "parsing" `Quick test_parse;
          Alcotest.test_case "control-char escaping (RFC 8259)" `Quick
            test_control_char_escaping;
          Alcotest.test_case "unicode escapes and surrogates" `Quick
            test_unicode_escapes;
          Alcotest.test_case "round-trips" `Quick test_roundtrip;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "non-finite floats print as null" `Quick
            test_non_finite_floats;
          QCheck_alcotest.to_alcotest prop_print_matches_oracle;
          QCheck_alcotest.to_alcotest prop_parse_matches_oracle;
        ] );
      ( "json depth",
        [ Alcotest.test_case "printing is flat" `Quick test_print_deep ] );
      ( "stats",
        [ Alcotest.test_case "to_json/of_json" `Quick test_stats_roundtrip ] );
      ( "deadline",
        [
          Alcotest.test_case "no-op without a deadline" `Quick
            test_deadline_unset;
          Alcotest.test_case "expires" `Quick test_deadline_expires;
          Alcotest.test_case "nesting restores the outer expiry" `Quick
            test_deadline_nesting;
          Alcotest.test_case "domain-local" `Quick test_deadline_domain_local;
        ] );
    ]
