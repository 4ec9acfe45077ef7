(* QCheck generators of JSON values, shared by the codec tests
   (test_util) and the reply-splicing tests (test_serve): strings with
   every escape class and raw UTF-8, ints at the 18-digit fast-path
   edges and the extremes, finite floats and NaN, and nested lists and
   objects. *)

module Json = Ctam_util.Json

let gen_str =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          string_size (int_range 0 12)
            ~gen:
              (frequency
                 [
                   (6, char_range 'a' 'z');
                   (2, oneofl [ '"'; '\\'; '/'; ' '; 'u'; '\127' ]);
                   (2, char_range '\000' '\031');
                   (2, char_range '\128' '\255');
                 ]) );
        ( 1,
          oneofl
            [ ""; "\xf0\x9f\x98\x80"; "\xf4\x8f\xbf\xbf"; "caché θ";
              "\xed\xa0\x80"; "a\"b\\c\n"; String.make 70 'x' ] );
      ])

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-1000) 1000);
        (2, int);
        ( 1,
          oneofl
            [ min_int; max_int; min_int + 1; max_int - 1; 0; -1;
              999_999_999_999_999_999; -999_999_999_999_999_999;
              1_000_000_000_000_000_000; -1_000_000_000_000_000_000 ] );
      ])

(* Finite floats and NaN; infinities are the one intended difference
   from the oracle codec (see [test_non_finite_floats] in test_util). *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun f -> if Float.is_finite f then f else Float.nan) float);
        (1, map float_of_int (int_range (-100000) 100000));
        ( 1,
          oneofl
            [ 0.0; -0.0; 0.1; 1.5; 1e15; 1e15 -. 1.; -1e15; 1e-300; 5e-324;
              Float.max_float; Float.min_float; Float.epsilon; Float.nan ] );
      ])

let gen_value =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (3, map (fun i -> Json.Int i) gen_int);
                 (2, map (fun f -> Json.Float f) gen_float);
                 (2, map (fun s -> Json.String s) gen_str);
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map (fun vs -> Json.List vs)
                     (list_size (int_range 0 5) (self (depth - 1))) );
                 ( 1,
                   map (fun ms -> Json.Obj ms)
                     (list_size (int_range 0 5) (pair gen_str (self (depth - 1))))
                 );
               ]))

