(* The [sequence_index] workload: the paper's access methods called
   in-process, single-threaded, with no wire, parser or WAL.  An SBC-tree
   over run-length-encoded secondary structures, an SP-GiST trie over gene
   identifiers and an SP-GiST kd-tree over 2-d points share one pager
   whose pool holds them all; seeded searches run interleaved with
   inserts.

   Every answer is kept with the corpus size it was asked against and
   checked after the timed phase by brute force over the plain corpus. *)

open Common
module Disk = Bdbms_storage.Disk
module Stats = Bdbms_storage.Stats
module Sbc = Bdbms_sbc.Sbc_tree
module Trie = Bdbms_spgist.Trie
module Kd = Bdbms_spgist.Kd_tree

let page_size = 1024
let pool_pages = 16384
let initial_seqs = 600
let initial_keys = 6000
let initial_points = 6000
let rounds_per_s = 9

(* One round, in a seeded order.  SBC searches take most of the time (and
   move ops_s); the weights put the median read inside the kd window
   searches and the median write inside the kd inserts, whose latencies
   are tight, rather than on the edge between two templates.  A round
   inserts one structure against ten SBC searches, so the corpus grows by
   about a fifth over a run and search cost stays nearly level. *)
let round_ops =
  [
    ("sbc_substring", 8); ("sbc_prefix", 2); ("trie_prefix", 4); ("trie_regex", 2); ("kd_window", 16);
    ("kd_nearest", 8); ("sbc_insert", 1); ("trie_insert", 4); ("kd_insert", 12);
  ]

let is_write op = op = "sbc_insert" || op = "trie_insert" || op = "kd_insert"

(* -------------------------------------------------------------- inputs *)

(* A secondary structure over H/E/L: runs of geometric length (mean 6). *)
let structure rng =
  let len = 200 + Rng.int rng 200 in
  let b = Buffer.create len in
  let prev = ref ' ' in
  while Buffer.length b < len do
    let rec pick () = let c = "HEL".[Rng.int rng 3] in if c = !prev then pick () else c in
    let c = pick () in
    prev := c;
    let run = 1 + int_of_float (-.log (1.0 -. Rng.float rng) *. 5.0) in
    Buffer.add_string b (String.make (min run (len - Buffer.length b)) c)
  done;
  Buffer.contents b

let prefixes = [| "JW"; "ECK"; "b"; "YP_" |]

let identifier rng i = Printf.sprintf "%s%04d%c" (Rng.pick rng prefixes) (Rng.int rng 10000) "ABCDEFGH".[i mod 8]

let point rng = [| Rng.float rng *. 1000.0; Rng.float rng *. 1000.0 |]

(* ------------------------------------------------------- brute force *)

let occurrences ~pat s =
  let n = String.length s and k = String.length pat in
  let rec at i j = j = k || (s.[i + j] = pat.[j] && at i (j + 1)) in
  let acc = ref [] in
  for i = n - k downto 0 do
    if at i 0 then acc := i :: !acc
  done;
  !acc

(* The SBC-tree reports a single-run pattern once per text run (at the
   run's start); every other pattern at each raw occurrence. *)
let sbc_expected corpus n pat =
  let single = String.length pat > 0 && String.for_all (fun c -> c = pat.[0]) pat in
  List.concat
    (List.init n (fun id ->
         let s = corpus.(id) in
         occurrences ~pat s
         |> List.filter (fun p -> (not single) || p = 0 || s.[p - 1] <> pat.[0])
         |> List.map (fun p -> (id, p))))

(* A small backtracking matcher for the regex shapes this workload
   generates — literals, '.', [a-z] classes and '*' on a single atom —
   written apart from the program's Thompson NFA. *)
let regex_match pat s =
  let atom_end i = if pat.[i] = '[' then String.index_from pat i ']' + 1 else i + 1 in
  let atom_ok i c =
    match pat.[i] with
    | '.' -> true
    | '[' ->
        let close = String.index_from pat i ']' in
        let rec go j = j < close && (if j + 2 < close && pat.[j + 1] = '-' then (c >= pat.[j] && c <= pat.[j + 2]) || go (j + 3) else c = pat.[j] || go (j + 1)) in
        go (i + 1)
    | ch -> ch = c
  in
  let n = String.length pat and m = String.length s in
  let rec go i j =
    if i = n then j = m
    else
      let e = atom_end i in
      if e < n && pat.[e] = '*' then go (e + 1) j || (j < m && atom_ok i s.[j] && go i (j + 1))
      else j < m && atom_ok i s.[j] && go e (j + 1)
  in
  go 0 0

(* From an existing key: its first two characters, a digit class around
   the third, anything, and the last character. *)
let make_regex key =
  let c = key.[2] in
  let cls = if c >= '0' && c <= '9' then Printf.sprintf "[0-%c]" c else String.make 1 c in
  Printf.sprintf "%s%s.*%c" (String.sub key 0 2) cls key.[String.length key - 1]

let dist a b = sqrt (((a.(0) -. b.(0)) ** 2.0) +. ((a.(1) -. b.(1)) ** 2.0))

(* ------------------------------------------------------------- state *)

type env = {
  disk : Disk.t;
  sbc : Sbc.t;
  trie : Trie.t;
  kd : Kd.t;
  seqs : string array;  (* by SBC sequence id *)
  mutable nseqs : int;
  keys : string array;  (* trie value = index *)
  mutable nkeys : int;
  points : float array array;
  mutable npoints : int;
  rng : Rng.t;
}

let raw_bytes e =
  let s = ref 0 in
  for i = 0 to e.nseqs - 1 do s := !s + String.length e.seqs.(i) done;
  for i = 0 to e.nkeys - 1 do s := !s + String.length e.keys.(i) done;
  !s + (16 * e.npoints)

let index_pages e = Sbc.total_pages e.sbc + Trie.node_pages e.trie + Kd.node_pages e.kd

let sbc_insert e s =
  let id = Sbc.insert e.sbc s in
  if id <> e.nseqs then failwith (Printf.sprintf "SBC assigned id %d to sequence %d" id e.nseqs);
  e.seqs.(e.nseqs) <- s;
  e.nseqs <- e.nseqs + 1

let trie_insert e k =
  Trie.insert e.trie k e.nkeys;
  e.keys.(e.nkeys) <- k;
  e.nkeys <- e.nkeys + 1

let kd_insert e p =
  Kd.insert e.kd p e.npoints;
  e.points.(e.npoints) <- p;
  e.npoints <- e.npoints + 1

let setup ~seed ~rounds =
  let count op = List.assoc op round_ops * rounds in
  let rng = Rng.make seed 201 in
  let disk = Disk.create ~page_size ~pool_pages () in
  let pager = Disk.pager disk in
  let e =
    {
      disk;
      sbc = Sbc.create ~with_three_sided:false pager;
      trie = Trie.create pager;
      kd = Kd.create ~dims:2 pager;
      seqs = Array.make (initial_seqs + count "sbc_insert") "";
      nseqs = 0;
      keys = Array.make (initial_keys + count "trie_insert") "";
      nkeys = 0;
      points = Array.make (initial_points + count "kd_insert") [||];
      npoints = 0;
      rng = Rng.make seed 202;
    }
  in
  for _ = 1 to initial_seqs do
    sbc_insert e (structure rng);
    setup_tick ()
  done;
  for i = 1 to initial_keys do
    trie_insert e (identifier rng i);
    setup_tick ()
  done;
  for _ = 1 to initial_points do
    kd_insert e (point rng);
    setup_tick ()
  done;
  (* warm-up: one search of each kind *)
  ignore (Sbc.substring_search e.sbc (String.sub e.seqs.(0) 0 6));
  ignore (Sbc.prefix_search e.sbc (String.sub e.seqs.(0) 0 3));
  ignore (Trie.prefix e.trie "JW1");
  ignore (Trie.regex e.trie (make_regex e.keys.(0)));
  ignore (Kd.window e.kd [| (100.0, 150.0); (100.0, 150.0) |]);
  ignore (Kd.nearest e.kd [| 500.0; 500.0 |] ~k:5);
  e

(* ---------------------------------------------------------------- run *)

type answer =
  | Substring of string * int * (int * int) list  (* pattern, corpus size, hits *)
  | Prefix of string * int * int list
  | Trie_prefix of string * int * (string * int) list
  | Trie_regex of string * int * (string * int) list
  | Window of (float * float) array * int * int list
  | Nearest of float array * int * int list

let accesses e = let s = Stats.snapshot (Disk.stats e.disk) in s.Stats.reads + s.Stats.writes + s.Stats.hits

(* a motif of 8-11 characters cut from a stored structure *)
let sample_pattern e =
  let s = e.seqs.(Rng.int e.rng e.nseqs) in
  let len = 8 + Rng.int e.rng 4 in
  String.sub s (Rng.int e.rng (String.length s - len)) len

let do_op e op rng_gen =
  match op with
  | "sbc_substring" ->
      let pat = sample_pattern e in
      let hits = Sbc.substring_search e.sbc pat in
      Some (Substring (pat, e.nseqs, List.map (fun o -> (o.Sbc.seq, o.Sbc.pos)) hits))
  | "sbc_prefix" ->
      let s = e.seqs.(Rng.int e.rng e.nseqs) in
      let pat = String.sub s 0 (2 + Rng.int e.rng 6) in
      Some (Prefix (pat, e.nseqs, Sbc.prefix_search e.sbc pat))
  | "trie_prefix" ->
      let k = e.keys.(Rng.int e.rng e.nkeys) in
      let pat = String.sub k 0 (min (String.length k) (3 + Rng.int e.rng 3)) in
      Some (Trie_prefix (pat, e.nkeys, Trie.prefix e.trie pat))
  | "trie_regex" -> (
      let pat = make_regex e.keys.(Rng.int e.rng e.nkeys) in
      match Trie.regex e.trie pat with
      | Ok hits -> Some (Trie_regex (pat, e.nkeys, hits))
      | Error msg -> failwith ("regex " ^ pat ^ ": " ^ msg))
  | "kd_window" ->
      let x = Rng.float e.rng *. 950.0 and y = Rng.float e.rng *. 950.0 in
      let w = [| (x, x +. 50.0); (y, y +. 50.0) |] in
      Some (Window (w, e.npoints, List.map snd (Kd.window e.kd w)))
  | "kd_nearest" ->
      let p = point e.rng in
      Some (Nearest (p, e.npoints, List.map (fun (_, id, _) -> id) (Kd.nearest e.kd p ~k:5)))
  | "sbc_insert" ->
      sbc_insert e (structure rng_gen);
      None
  | "trie_insert" ->
      trie_insert e (identifier rng_gen e.nkeys);
      None
  | "kd_insert" ->
      kd_insert e (point rng_gen);
      None
  | other -> invalid_arg other

let check_answer e (chk : Check.t) = function
  | Substring (pat, n, hits) ->
      Check.expect chk (List.sort compare hits = List.sort compare (sbc_expected e.seqs n pat)) (fun () ->
          Printf.sprintf "substring %s: %d hits differ from the scan" pat (List.length hits))
  | Prefix (pat, n, ids) ->
      let expected = List.filter (fun id -> is_prefix ~prefix:pat e.seqs.(id)) (List.init n Fun.id) in
      Check.expect chk (List.sort compare ids = expected) (fun () -> "sbc prefix " ^ pat ^ " differs")
  | Trie_prefix (pat, n, hits) ->
      let expected = List.filter_map (fun i -> if is_prefix ~prefix:pat e.keys.(i) then Some (e.keys.(i), i) else None) (List.init n Fun.id) in
      Check.expect chk (List.sort compare hits = List.sort compare expected) (fun () -> "trie prefix " ^ pat ^ " differs")
  | Trie_regex (pat, n, hits) ->
      let expected = List.filter_map (fun i -> if regex_match pat e.keys.(i) then Some (e.keys.(i), i) else None) (List.init n Fun.id) in
      Check.expect chk (List.sort compare hits = List.sort compare expected) (fun () -> "trie regex " ^ pat ^ " differs")
  | Window (w, n, ids) ->
      let inside p = fst w.(0) <= p.(0) && p.(0) <= snd w.(0) && fst w.(1) <= p.(1) && p.(1) <= snd w.(1) in
      let expected = List.filter (fun i -> inside e.points.(i)) (List.init n Fun.id) in
      Check.expect chk (List.sort compare ids = expected) (fun () -> "kd window differs")
  | Nearest (p, n, ids) ->
      let all = List.init n (fun i -> (dist p e.points.(i), i)) |> List.sort compare in
      let expected = List.filteri (fun j _ -> j < 5) all |> List.map snd in
      Check.expect chk (ids = expected) (fun () -> "kd nearest differs")

type layer_acc = { mutable ms : float; mutable acc : int; mutable n : int }

let run ~seed ~seconds ~trace:_ =
  let rounds = rounds_per_s * seconds in
  let setups = ref [] in
  let env = ref None in
  for _ = 1 to setups_per_run do
    env := None;
    Gc.full_major ();
    let e, secs = timed_setup (fun () -> setup ~seed ~rounds) in
    setups := secs :: !setups;
    env := Some e
  done;
  let e = Option.get !env in
  let chk = Check.create () in
  let tally = Tally.create () in
  let layer = Hashtbl.create 8 in
  let acc_of k = match Hashtbl.find_opt layer k with Some a -> a | None -> let a = { ms = 0.0; acc = 0; n = 0 } in Hashtbl.replace layer k a; a in
  let reads = ref [] and writes = ref [] and samples = ref [] and answers = ref [] in
  let rng_gen = Rng.make seed 203 in
  let before = Stats.snapshot (Disk.stats e.disk) in
  let ops = List.concat_map (fun (op, k) -> List.init k (fun _ -> op)) round_ops |> Array.of_list in
  let t0 = now_ms () in
  let host = ref [] in
  for _ = 1 to rounds do
    host := host_sample () :: !host;
    Rng.shuffle e.rng ops;
    Array.iter
      (fun op ->
        let a0 = accesses e in
        let answer, ms = time_ms (fun () -> do_op e op rng_gen) in
        let pages = accesses e - a0 in
        let w = is_write op in
        Tally.add tally op ~write:w ms;
        if w then writes := ms :: !writes else reads := ms :: !reads;
        samples := { at_ms = now_ms (); ms; write = w } :: !samples;
        let group =
          match op with
          | "sbc_substring" | "sbc_prefix" -> "sbc_search"
          | "sbc_insert" -> "sbc_insert"
          | "trie_prefix" | "trie_regex" | "trie_insert" -> "trie"
          | _ -> "kd"
        in
        let a = acc_of group in
        a.ms <- a.ms +. ms;
        a.acc <- a.acc + pages;
        a.n <- a.n + 1;
        Option.iter (fun x -> answers := x :: !answers) answer)
      ops
  done;
  let wall_ms = now_ms () -. t0 in
  let rss = peak_rss_mb 0 in
  let fig = run_figures ~t0 ~host:!host (Array.of_list (List.rev !samples)) in
  let d = Stats.diff ~after:(Stats.snapshot (Disk.stats e.disk)) ~before in
  List.iter (check_answer e chk) !answers;
  let attempted = rounds * Array.length ops in
  let mean k f = let a = acc_of k in if a.n = 0 then 0.0 else f a /. float_of_int a.n in
  let per_op x = float_of_int x /. float_of_int attempted in
  let e2e =
    [
      m "setup_s" "s" (median !setups);
      m "ops_s" "1/s" fig.ops_s;
      m "read_p50_ms" "ms" fig.read_p50;
      m "write_p50_ms" "ms" fig.write_p50;
      m "space_amp" "ratio" (float_of_int (index_pages e * page_size) /. float_of_int (raw_bytes e));
      m "peak_rss_mb" "MB" rss;
    ]
  in
  let layers =
    [
      m "sbc.search_ms_mean" "ms" (mean "sbc_search" (fun a -> a.ms));
      m "sbc.page_accesses_per_search" "count" (mean "sbc_search" (fun a -> float_of_int a.acc));
      m "sbc.insert_ms_mean" "ms" (mean "sbc_insert" (fun a -> a.ms));
      m "sbc.page_accesses_per_insert" "count" (mean "sbc_insert" (fun a -> float_of_int a.acc));
      m "spgist.trie_ms_mean" "ms" (mean "trie" (fun a -> a.ms));
      m "spgist.trie_page_accesses_per_op" "count" (mean "trie" (fun a -> float_of_int a.acc));
      m "spgist.kd_ms_mean" "ms" (mean "kd" (fun a -> a.ms));
      m "spgist.kd_page_accesses_per_op" "count" (mean "kd" (fun a -> float_of_int a.acc));
      m "pager.hit_ratio" "ratio"
        (let h = d.Stats.hits and i = d.Stats.page_ins in if h + i = 0 then 1.0 else float_of_int h /. float_of_int (h + i));
      m "pager.page_ins_per_op" "count" (per_op d.Stats.page_ins);
      m "pager.evictions_per_op" "count" (per_op d.Stats.evictions);
      m "pager.writebacks_per_op" "count" (per_op d.Stats.writebacks);
      m "pager.pages_written_per_op" "count" (per_op d.Stats.writes);
      m "pager.forced_wal_flushes_per_op" "count" (per_op d.Stats.wal_forced_flushes);
    ]
  in
  let report =
    [
      Printf.sprintf
        "sequence_index: %d structures, %d identifiers, %d points at start; %d rounds; pool %d pages of %d bytes, indexes %d pages"
        initial_seqs initial_keys initial_points rounds pool_pages page_size (index_pages e);
      Printf.sprintf "set-ups (s at reference speed): %s" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setups));
      Printf.sprintf "reads: %s, %.1f%% of operations" (describe_latencies !reads)
        (100.0 *. float_of_int (List.length !reads) /. float_of_int attempted);
      Printf.sprintf "writes: %s" (describe_latencies !writes);
      Printf.sprintf "timed phase %.0fms, %d ops (%.2f ops/s raw)" wall_ms attempted
        (float_of_int attempted /. (wall_ms /. 1000.0));
      describe_host !host;
      describe_figures fig;
      "templates:";
    ]
    @ Tally.lines tally
    @ List.map (fun s -> "CHECK FAILED: " ^ s) chk.Check.notes
  in
  { correct = chk.Check.ok; attempted; failed = 0; e2e; layers; report }
