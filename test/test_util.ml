(* Unit and property tests for Ash_util: statistics, Internet checksum,
   CRC-32, PRNG, byte helpers. *)

module Stats = Ash_util.Stats
module Checksum = Ash_util.Checksum
module Crc32 = Ash_util.Crc32
module Rng = Ash_util.Rng
module Bytesx = Ash_util.Bytesx

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  check_float "singleton" 7.5 (Stats.mean [ 7.5 ])

let test_summary () =
  let s = Stats.summarize [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "n" 8 s.Stats.n;
  check_float "mean" 5.0 s.Stats.mean;
  Alcotest.(check bool) "stddev ~2.14" true
    (abs_float (s.Stats.stddev -. 2.138) < 0.01);
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 9.0 s.Stats.max

let test_summary_singleton () =
  let s = Stats.summarize [ 42. ] in
  check_float "mean" 42. s.Stats.mean;
  check_float "sd" 0. s.Stats.stddev;
  check_float "ci" 0. s.Stats.ci95

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize []))

let test_ci_shrinks_with_n () =
  let mk n = List.init n (fun i -> if i mod 2 = 0 then 1. else 3.) in
  let s4 = Stats.summarize (mk 4) and s100 = Stats.summarize (mk 100) in
  Alcotest.(check bool) "more samples, tighter CI" true
    (s100.Stats.ci95 < s4.Stats.ci95)

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "p50" 5.0 (Stats.percentile 50. xs);
  check_float "p100" 10.0 (Stats.percentile 100. xs);
  check_float "p0" 1.0 (Stats.percentile 0. xs)

(* ------------------------------------------------------------------ *)
(* Internet checksum                                                   *)
(* ------------------------------------------------------------------ *)

let bytes_of_ints ints =
  let b = Bytes.create (List.length ints) in
  List.iteri (fun i v -> Bytes.set b i (Char.chr v)) ints;
  b

let test_cksum_rfc1071_example () =
  (* The worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
     have one's-complement sum ddf2 (before complement). *)
  let b = bytes_of_ints [ 0x00; 0x01; 0xf2; 0x03; 0xf4; 0xf5; 0xf6; 0xf7 ] in
  let sum = Checksum.fold16 (Checksum.ones_sum b ~off:0 ~len:8) in
  Alcotest.(check int) "sum" 0xddf2 sum;
  Alcotest.(check int) "checksum" (lnot 0xddf2 land 0xffff)
    (Checksum.checksum b ~off:0 ~len:8)

let test_cksum_zero () =
  let b = Bytes.make 16 '\000' in
  Alcotest.(check int) "all-zero sum" 0
    (Checksum.fold16 (Checksum.ones_sum b ~off:0 ~len:16));
  Alcotest.(check int) "all-zero checksum" 0xffff
    (Checksum.checksum b ~off:0 ~len:16)

let test_cksum_odd_length () =
  let b = bytes_of_ints [ 0xab; 0xcd; 0xef ] in
  (* abcd + ef00 = 1_9acd -> 9ace after fold *)
  Alcotest.(check int) "odd" 0x9ace
    (Checksum.fold16 (Checksum.ones_sum b ~off:0 ~len:3))

let test_cksum_verify_roundtrip () =
  let rng = Rng.create 7 in
  for len = 2 to 64 do
    let b = Bytes.create (len + 2) in
    Rng.fill_bytes rng b;
    (* Stick the checksum of bytes [2..] into the first two bytes, then
       verify over the whole buffer. *)
    Bytesx.set_u16 b 0 0;
    let c = Checksum.checksum b ~off:0 ~len:(len + 2) in
    Bytesx.set_u16 b 0 c;
    Alcotest.(check bool)
      (Printf.sprintf "verify len=%d" len)
      true
      (Checksum.verify b ~off:0 ~len:(len + 2))
  done

let test_sum32_matches_ones_sum () =
  (* For multiple-of-4 buffers, folding the 32-bit end-around-carry sum
     to 16 bits must agree with the 16-bit one's-complement sum: this is
     the property that lets the Fig. 2 pipe compute the Internet
     checksum a word at a time. *)
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let words = 1 + Rng.int rng 300 in
    let b = Bytes.create (words * 4) in
    Rng.fill_bytes rng b;
    let via32 =
      Checksum.fold32_to16 (Checksum.sum32 b ~off:0 ~len:(words * 4))
    in
    let via16 = Checksum.fold16 (Checksum.ones_sum b ~off:0 ~len:(words * 4)) in
    Alcotest.(check int) "32-bit path = 16-bit path" via16 via32
  done

let test_sum32_rejects_unaligned () =
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Checksum.sum32: len not multiple of 4") (fun () ->
      ignore (Checksum.sum32 (Bytes.create 6) ~off:0 ~len:6))

(* [off + len] wraps past [max_int] here; the check must not. *)
let test_cksum_bounds_wrap () =
  let b = Bytes.create 8 in
  Alcotest.check_raises "ones_sum" (Invalid_argument "Checksum.ones_sum")
    (fun () -> ignore (Checksum.ones_sum b ~off:(max_int - 2) ~len:4));
  Alcotest.check_raises "ones_sum, odd" (Invalid_argument "Checksum.ones_sum")
    (fun () -> ignore (Checksum.ones_sum b ~off:(max_int - 2) ~len:3));
  Alcotest.check_raises "sum32" (Invalid_argument "Checksum.sum32") (fun () ->
      ignore (Checksum.sum32 b ~off:(max_int - 2) ~len:4))

let test_incremental_sum () =
  let b = Bytes.create 32 in
  Rng.fill_bytes (Rng.create 3) b;
  let whole = Checksum.ones_sum b ~off:0 ~len:32 in
  let first = Checksum.ones_sum b ~off:0 ~len:16 in
  let both = Checksum.ones_sum ~acc:first b ~off:16 ~len:16 in
  Alcotest.(check int) "incremental = whole"
    (Checksum.fold16 whole) (Checksum.fold16 both)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

(* The textbook bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320)
   on [Int32], the reference the digest must match on every slice. *)
let crc32_bitwise b ~off ~len =
  let crc = ref 0xffffffffl in
  for i = off to off + len - 1 do
    crc := Int32.logxor !crc (Int32.of_int (Char.code (Bytes.get b i)));
    for _ = 0 to 7 do
      let lsb = Int32.logand !crc 1l in
      crc := Int32.shift_right_logical !crc 1;
      if lsb <> 0l then crc := Int32.logxor !crc 0xedb88320l
    done
  done;
  Int32.logxor !crc 0xffffffffl

let test_crc32_known () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l
    (Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest_string "");
  (* Every length to 200 at every start offset to 17: each [len mod 16],
     the 63/64/65 edge where the fold starts on a PCLMULQDQ host, and
     every alignment of the first byte. *)
  let b = Bytes.create 218 in
  Rng.fill_bytes (Rng.create 24) b;
  for off = 0 to 17 do
    for len = 0 to 200 do
      Alcotest.(check int32)
        (Printf.sprintf "off %d len %d" off len)
        (crc32_bitwise b ~off ~len) (Crc32.digest b ~off ~len)
    done
  done;
  let whole b = Crc32.digest b ~off:0 ~len:(Bytes.length b) in
  let ones = Bytes.make 65_536 '\xff' in
  Alcotest.(check int32) "64 KiB of 0xff"
    (crc32_bitwise ones ~off:0 ~len:65_536) (whole ones);
  let frame = Bytes.create 3112 in
  Rng.fill_bytes (Rng.create 3112) frame;
  Alcotest.(check int32) "3112-byte frame"
    (crc32_bitwise frame ~off:0 ~len:3112) (whole frame)

let test_crc32_detects_corruption () =
  let b = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let c = Crc32.digest b ~off:0 ~len:(Bytes.length b) in
  Bytes.set b 7 'X';
  let c' = Crc32.digest b ~off:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "differs" true (c <> c')

(* [off + len] wraps past [max_int] here; the check must not, since the
   digest reads unchecked. A wrapping check reads no byte at [max_int - 2]
   but reads byte [max_int] at [(max_int, 1)], so that case goes last. *)
let test_crc32_bounds_wrap () =
  let b = Bytes.create 8 in
  List.iter
    (fun (off, len) ->
       Alcotest.check_raises
         (Printf.sprintf "off max_int - %d len %d" (max_int - off) len)
         (Invalid_argument "Crc32.digest")
         (fun () -> ignore (Crc32.digest b ~off ~len)))
    [ (max_int - 2, 4); (max_int, 1) ]

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 digest = bit-at-a-time reference" ~count:300
    ~long_factor:10
    QCheck.(triple (bytes_of_size (Gen.int_range 0 4096)) small_nat small_nat)
    (fun (b, a, c) ->
       let n = Bytes.length b in
       let off = if n = 0 then 0 else a mod (n + 1) in
       let len = if n - off = 0 then 0 else c mod (n - off + 1) in
       Crc32.digest b ~off ~len = crc32_bitwise b ~off ~len)

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.next parent) in
  let ys = List.init 20 (fun _ -> Rng.next child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Bytesx                                                              *)
(* ------------------------------------------------------------------ *)

let test_endianness_roundtrip () =
  let b = Bytes.create 8 in
  Bytesx.set_u32 b 0 0xdeadbeef;
  Alcotest.(check int) "be32" 0xdeadbeef (Bytesx.get_u32 b 0);
  Alcotest.(check int) "be byte order" 0xde (Bytesx.get_u8 b 0);
  Bytesx.set_u32_le b 4 0xdeadbeef;
  Alcotest.(check int) "le32" 0xdeadbeef (Bytesx.get_u32_le b 4);
  Alcotest.(check int) "le byte order" 0xef (Bytesx.get_u8 b 4);
  Bytesx.set_u16 b 0 0xcafe;
  Alcotest.(check int) "be16" 0xcafe (Bytesx.get_u16 b 0)

let test_bswap () =
  Alcotest.(check int) "bswap16" 0x3412 (Bytesx.bswap16 0x1234);
  Alcotest.(check int) "bswap32" 0x78563412 (Bytesx.bswap32 0x12345678);
  Alcotest.(check int) "bswap32 involutive" 0x12345678
    (Bytesx.bswap32 (Bytesx.bswap32 0x12345678))

let test_bounds_checking () =
  let b = Bytes.create 4 in
  Alcotest.check_raises "get_u32 off end" (Invalid_argument "Bytesx.get_u32")
    (fun () -> ignore (Bytesx.get_u32 b 1));
  Alcotest.check_raises "negative" (Invalid_argument "Bytesx.get_u16")
    (fun () -> ignore (Bytesx.get_u16 b (-1)))

(* The accessors sit on the stdlib's; these are the byte-by-byte
   compositions they replaced. *)
let prop_bytesx_matches_bytewise =
  QCheck.Test.make ~name:"bytesx accessors = byte-wise reference" ~count:300
    QCheck.(pair (int_range 0 4) int)
    (fun (off, v) ->
       let b = Bytes.init 8 (fun i -> Char.chr ((v lsr (3 * i)) land 0xff)) in
       let byte i = Char.code (Bytes.get b (off + i)) in
       let be16 = (byte 0 lsl 8) lor byte 1 in
       let le16 = byte 0 lor (byte 1 lsl 8) in
       let be32 = (be16 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
       let le32 = le16 lor (byte 2 lsl 16) lor (byte 3 lsl 24) in
       let reads =
         Bytesx.get_u16 b off = be16
         && Bytesx.get_u16_le b off = le16
         && Bytesx.get_u32 b off = be32
         && Bytesx.get_u32_le b off = le32
       in
       let wrote set get width =
         let w = Bytes.make 8 '\000' in
         set w off v;
         get w off = v land ((1 lsl width) - 1)
         && Bytes.sub_string w 0 off = String.make off '\000'
         && Bytes.sub_string w (off + (width / 8)) (8 - off - (width / 8))
            = String.make (8 - off - (width / 8)) '\000'
       in
       let be_order =
         let w = Bytes.make 8 '\000' in
         Bytesx.set_u32 w off v;
         Char.code (Bytes.get w off) = (v lsr 24) land 0xff
       in
       reads && be_order
       && wrote Bytesx.set_u16 Bytesx.get_u16 16
       && wrote Bytesx.set_u16_le Bytesx.get_u16_le 16
       && wrote Bytesx.set_u32 Bytesx.get_u32 32
       && wrote Bytesx.set_u32_le Bytesx.get_u32_le 32)

let test_bytesx_error_messages () =
  let b = Bytes.create 4 in
  List.iter
    (fun (name, f) ->
       Alcotest.check_raises name (Invalid_argument ("Bytesx." ^ name)) f)
    [
      ("set_u16", fun () -> Bytesx.set_u16 b 3 0);
      ("set_u32", fun () -> Bytesx.set_u32 b 1 0);
      ("get_u16_le", fun () -> ignore (Bytesx.get_u16_le b 3));
      ("set_u16_le", fun () -> Bytesx.set_u16_le b (-1) 0);
      ("get_u32_le", fun () -> ignore (Bytesx.get_u32_le b 2));
      ("set_u32_le", fun () -> Bytesx.set_u32_le b 4 0);
      (* [off + len] wraps past [max_int]. *)
      ("get_u8", fun () -> ignore (Bytesx.get_u8 b max_int));
      ("equal_slice", fun () -> ignore (Bytesx.equal_slice b max_int b 0 1));
    ]

let test_equal_slice () =
  let a = Bytes.of_string "hello world" in
  let b = Bytes.of_string "XXhelloXXXX" in
  Alcotest.(check bool) "equal" true (Bytesx.equal_slice a 0 b 2 5);
  Alcotest.(check bool) "not equal" false (Bytesx.equal_slice a 0 b 0 5)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_checksum_detects_single_bit_flip =
  QCheck.Test.make ~name:"checksum detects any single-bit flip"
    ~count:200
    QCheck.(pair (bytes_of_size (Gen.int_range 2 128)) small_nat)
    (fun (s, pos) ->
       let b = Bytes.of_string (Bytes.to_string s) in
       let len = Bytes.length b in
       QCheck.assume (len >= 2);
       let pos = pos mod (len * 8) in
       let before = Checksum.checksum b ~off:0 ~len in
       let byte = pos / 8 and bit = pos mod 8 in
       Bytes.set b byte
         (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
       Checksum.checksum b ~off:0 ~len <> before)

let prop_bswap32_involutive =
  QCheck.Test.make ~name:"bswap32 is an involution" ~count:500
    QCheck.(int_bound 0xffffff)
    (fun v ->
       let v = v * 131 land 0xffff_ffff in
       Bytesx.bswap32 (Bytesx.bswap32 v) = v)

(* One's-complement checksums have two representations of zero (0x0000
   and 0xffff); incremental update can land on either, so properties
   compare modulo that class, as RFC 1624 §3 discusses. *)
let cksum_equiv a b =
  a = b || (a land 0xffff = 0 || a land 0xffff = 0xffff)
           && (b land 0xffff = 0 || b land 0xffff = 0xffff)

let prop_cksum_incremental_update =
  (* RFC 1624 Eqn. 3: HC' = ~(~HC + ~m + m') when one 16-bit field
     changes from m to m'. Must agree with full recomputation. *)
  QCheck.Test.make ~name:"rfc1624 incremental update = full recompute"
    ~count:300
    QCheck.(triple (bytes_of_size (Gen.int_range 2 128)) small_nat
              (int_bound 0xffff))
    (fun (s, widx, m') ->
       let b = Bytes.of_string (Bytes.to_string s) in
       let len = Bytes.length b land lnot 1 in
       QCheck.assume (len >= 2);
       let widx = 2 * (widx mod (len / 2)) in
       let hc = Checksum.checksum b ~off:0 ~len in
       let m = Bytesx.get_u16 b widx in
       Bytesx.set_u16 b widx m';
       let direct = Checksum.checksum b ~off:0 ~len in
       let incremental =
         lnot
           (Checksum.fold16
              ((lnot hc land 0xffff) + (lnot m land 0xffff) + m'))
         land 0xffff
       in
       cksum_equiv incremental direct)

let prop_cksum_odd_is_zero_padded =
  (* RFC 1071: an odd trailing byte acts as the high byte of a final
     word whose low byte is zero. *)
  QCheck.Test.make ~name:"odd-length checksum = zero-padded even checksum"
    ~count:300
    QCheck.(bytes_of_size (Gen.int_range 1 129))
    (fun s ->
       let b = Bytes.of_string (Bytes.to_string s) in
       let len = Bytes.length b in
       QCheck.assume (len land 1 = 1);
       let padded = Bytes.extend b 0 1 in
       Bytes.set padded len '\000';
       Checksum.checksum b ~off:0 ~len
       = Checksum.checksum padded ~off:0 ~len:(len + 1))

let prop_cksum_byteswap_commutes =
  (* Swapping the bytes of every 16-bit word byteswaps the checksum:
     one's-complement addition is rotation-invariant. This is why the
     checksum can be computed in either byte order and fixed up last. *)
  QCheck.Test.make ~name:"checksum of byte-swapped data = bswap16 of checksum"
    ~count:300
    QCheck.(bytes_of_size (Gen.int_range 1 64))
    (fun s ->
       let words = Bytes.length s in
       let b = Bytes.create (2 * words) in
       Bytes.blit s 0 b 0 words;
       Bytes.blit s 0 b words words;
       let len = 2 * (Bytes.length b / 2) in
       QCheck.assume (len >= 2);
       let swapped = Bytes.create len in
       for k = 0 to (len / 2) - 1 do
         Bytesx.set_u16 swapped (2 * k)
           (Bytesx.bswap16 (Bytesx.get_u16 b (2 * k)))
       done;
       cksum_equiv
         (Checksum.checksum swapped ~off:0 ~len)
         (Bytesx.bswap16 (Checksum.checksum b ~off:0 ~len)))

let prop_endianness_roundtrip =
  QCheck.Test.make ~name:"u16/u32 store-load round-trips, both endians"
    ~count:300
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffffff))
    (fun (v16, v24) ->
       let v32 = (v24 * 257) land 0xffff_ffff in
       let b = Bytes.create 12 in
       Bytesx.set_u16 b 0 v16;
       Bytesx.set_u32 b 4 v32;
       Bytesx.set_u32_le b 8 v32;
       Bytesx.get_u16 b 0 = v16
       && Bytesx.get_u32 b 4 = v32
       && Bytesx.get_u32_le b 8 = v32
       (* Big- and little-endian images of the same value are mutual
          byte reversals. *)
       && Bytesx.get_u32_le b 4 = Bytesx.bswap32 v32)

let test_percentile_edges () =
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile 50. []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: out of range") (fun () ->
      ignore (Stats.percentile 101. [ 1. ]));
  (* A single sample is every percentile. *)
  List.iter
    (fun p -> check_float (Printf.sprintf "single p%.0f" p) 8.5
        (Stats.percentile p [ 8.5 ]))
    [ 0.; 50.; 90.; 99.; 100. ];
  (* All-equal samples: every percentile is that value. *)
  let xs = [ 3.; 3.; 3.; 3.; 3. ] in
  List.iter
    (fun p -> check_float (Printf.sprintf "all-equal p%.0f" p) 3.
        (Stats.percentile p xs))
    [ 0.; 50.; 90.; 99.; 100. ]

let prop_summary_mean_between_min_max =
  QCheck.Test.make ~name:"summary mean lies within [min, max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
       let s = Stats.summarize xs in
       s.Stats.min <= s.Stats.mean +. 1e-9
       && s.Stats.mean <= s.Stats.max +. 1e-9)

(* -- Minijson: the dependency-free reader behind ashbench top and e2e -- *)

module J = Ash_util.Minijson

let test_minijson_values () =
  Alcotest.(check bool) "null" true (J.parse "null" = J.Null);
  Alcotest.(check bool) "bools" true
    (J.parse "true" = J.Bool true && J.parse "false" = J.Bool false);
  Alcotest.(check bool) "numbers" true
    (J.parse "42" = J.Num 42. && J.parse "-1.5e2" = J.Num (-150.)
     && J.parse "0.001" = J.Num 0.001 && J.parse "-3.5" = J.Num (-3.5)
     && J.parse "1.23457e+06" = J.Num 1.23457e+06);
  Alcotest.(check bool) "string" true (J.parse "\"hi\"" = J.Str "hi");
  Alcotest.(check bool) "empty containers" true
    (J.parse "[]" = J.List [] && J.parse "{}" = J.Obj []);
  Alcotest.(check bool) "nesting + whitespace" true
    (J.parse " { \"a\" : [ 1 , true ] } "
     = J.Obj [ ("a", J.List [ J.Num 1.; J.Bool true ]) ])

let test_minijson_escapes () =
  Alcotest.(check bool) "common escapes" true
    (J.parse {|"a\"b\\c\nd\te"|} = J.Str "a\"b\\c\nd\te");
  (* \u escapes decode to UTF-8 so our own writers round-trip. *)
  Alcotest.(check bool) "ascii \\u" true
    (J.parse "\"\\u0041\"" = J.Str "A");
  Alcotest.(check bool) "two-byte \\u" true
    (J.parse "\"\\u00e9\"" = J.Str "\xc3\xa9")

let test_minijson_errors () =
  let rejects s =
    match J.parse s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (rejects "1 2");
  Alcotest.(check bool) "unterminated string" true (rejects "\"abc");
  Alcotest.(check bool) "bare word" true (rejects "nope");
  Alcotest.(check bool) "missing colon" true (rejects "{\"a\" 1}");
  Alcotest.(check bool) "trailing comma" true (rejects "[1,]")

let test_minijson_accessors () =
  let v = J.parse {|{"meta": {"rev": "abc"}, "xs": [1, 2, 3]}|} in
  Alcotest.(check bool) "mem hit" true
    (Option.bind (J.mem "meta" v) (J.mem "rev") = Some (J.Str "abc"));
  Alcotest.(check bool) "mem miss" true (J.mem "nope" v = None);
  Alcotest.(check bool) "to_float" true (J.to_float (J.Num 3.) = Some 3.);
  Alcotest.(check bool) "to_float on non-num" true (J.to_float J.Null = None);
  Alcotest.(check int) "to_list" 3
    (match Option.bind (J.mem "xs" v) J.to_list with
     | Some l -> List.length l
     | None -> 0)

let () =
  Alcotest.run "ash_util"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "empty raises" `Quick test_summary_empty;
          Alcotest.test_case "ci shrinks with n" `Quick test_ci_shrinks_with_n;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_cksum_rfc1071_example;
          Alcotest.test_case "zero buffer" `Quick test_cksum_zero;
          Alcotest.test_case "odd length" `Quick test_cksum_odd_length;
          Alcotest.test_case "verify roundtrip" `Quick
            test_cksum_verify_roundtrip;
          Alcotest.test_case "sum32 = ones_sum" `Quick
            test_sum32_matches_ones_sum;
          Alcotest.test_case "sum32 unaligned" `Quick
            test_sum32_rejects_unaligned;
          Alcotest.test_case "incremental" `Quick test_incremental_sum;
          Alcotest.test_case "bounds that wrap" `Quick test_cksum_bounds_wrap;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known;
          Alcotest.test_case "bounds that wrap" `Quick test_crc32_bounds_wrap;
          Alcotest.test_case "detects corruption" `Quick
            test_crc32_detects_corruption;
          QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      ( "bytesx",
        [
          Alcotest.test_case "endianness" `Quick test_endianness_roundtrip;
          Alcotest.test_case "bswap" `Quick test_bswap;
          Alcotest.test_case "bounds" `Quick test_bounds_checking;
          Alcotest.test_case "error messages" `Quick test_bytesx_error_messages;
          Alcotest.test_case "equal_slice" `Quick test_equal_slice;
          QCheck_alcotest.to_alcotest prop_bytesx_matches_bytewise;
        ] );
      ( "minijson",
        [
          Alcotest.test_case "values" `Quick test_minijson_values;
          Alcotest.test_case "escapes" `Quick test_minijson_escapes;
          Alcotest.test_case "errors" `Quick test_minijson_errors;
          Alcotest.test_case "accessors" `Quick test_minijson_accessors;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_checksum_detects_single_bit_flip;
          QCheck_alcotest.to_alcotest prop_bswap32_involutive;
          QCheck_alcotest.to_alcotest prop_summary_mean_between_min_max;
          QCheck_alcotest.to_alcotest prop_cksum_incremental_update;
          QCheck_alcotest.to_alcotest prop_cksum_odd_is_zero_padded;
          QCheck_alcotest.to_alcotest prop_cksum_byteswap_commutes;
          QCheck_alcotest.to_alcotest prop_endianness_roundtrip;
        ] );
    ]
