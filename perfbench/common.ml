(* Shared pieces of the benchmark: the seeded generators, percentile
   selection, parsers for the server's rendered tables and its
   [stats]/[metrics] control text, counter deltas, per-template tallies
   and the result record every workload returns. *)

(* ------------------------------------------------------------ seeding *)

(* SplitMix64: a tiny, fully specified generator, so a seed gives the same
   inputs whatever the OCaml runtime's own [Random] does. *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed salt =
    { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int salt)) }

  let next64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  (* uniform in [0, bound) *)
  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int";
    Int64.(to_int (unsigned_rem (next64 t) (of_int bound)))

  (* uniform in [0, 1) *)
  let float t =
    Int64.(to_float (shift_right_logical (next64 t) 11)) /. 9007199254740992.0

  let pick t arr = arr.(int t (Array.length arr))

  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let x = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- x
    done

  let string t ~alphabet ~len =
    String.init len (fun _ -> alphabet.[int t (String.length alphabet)])
end

(* Zipfian ranks over [0, n): rank 0 is the hottest key.  The CDF is
   tabulated once; a draw is one binary search. *)
module Zipf = struct
  type t = { cdf : float array }

  let make ~n ~theta =
    if n < 1 then invalid_arg "Zipf.make";
    let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    { cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

  let draw t rng =
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

(* ------------------------------------------------------- percentiles *)

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median of a sample (mean of the two middle values for even counts). *)
let median xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest rank of percentile [p] among [n] samples; the epsilon
   keeps 0.9 *. 100. from rounding up to rank 91 *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of a sorted array, [p] in (0, 1]. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (rank n p - 1)))

(* The highest tail percentile a sample of [n] supports: at least ten
   samples must lie beyond it, and below forty samples there is no tail
   worth the name. *)
let tail_percentile n =
  if n < 40 then None
  else
    List.find_opt (fun p -> n - rank n p >= 10) [ 0.999; 0.99; 0.9 ]

let percentile_label p =
  let s = Printf.sprintf "%g" (p *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

(* "p50 1.234ms, p99 5.678ms (n=1200)" — the median, the supported tail,
   and the sample count. *)
let describe_latencies xs =
  let n = List.length xs in
  if n = 0 then "n=0"
  else
    let a = sorted_copy xs in
    let tail =
      match tail_percentile n with
      | None -> ""
      | Some p ->
          Printf.sprintf ", %s %.3fms" (percentile_label p) (nearest_rank a p)
    in
    Printf.sprintf "p50 %.3fms%s (n=%d)" (median xs) tail n

(* ------------------------------------------------- server text parsing *)

type table = {
  header : string list;
  rows : (string list * string list) list;
      (* cell values, and the annotation lines printed under the row *)
}

let split_cells line =
  let sep = " | " in
  let n = String.length line and m = String.length sep in
  let rec go start i acc =
    if i > n - m then List.rev (String.sub line start (n - start) :: acc)
    else if String.sub line i m = sep then go (i + m) (i + m) (String.sub line start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* SQL helpers: a quoted literal, and a list cut into runs of [n] *)
let q s = "'" ^ s ^ "'"

let rec chunks n = function
  | [] -> []
  | l ->
      let rec split i acc = function
        | x :: tl when i < n -> split (i + 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = split 0 [] l in
      c :: chunks n rest

let is_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Parse a server-rendered result table: a header line, one line per row
   (cells joined by " | "), annotation lines indented by four spaces under
   their row, and a "(N rows)" footer whose count must match. *)
let parse_table text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  match lines with
  | [] -> Error "empty table"
  | header :: rest ->
      let rec go acc = function
        | [] -> Error "missing row-count footer"
        | [ footer ] when is_prefix ~prefix:"(" footer -> (
            match Scanf.sscanf_opt footer "(%d rows)" (fun n -> n) with
            | Some n when n = List.length acc ->
                Ok { header = split_cells header; rows = List.rev_map (fun (c, a) -> (c, List.rev a)) acc }
            | Some n -> Error (Printf.sprintf "footer says %d rows, parsed %d" n (List.length acc))
            | None -> Error ("bad footer " ^ footer))
        | l :: tl when is_prefix ~prefix:"    " l -> (
            match acc with
            | (cells, anns) :: acc' -> go ((cells, String.trim l :: anns) :: acc') tl
            | [] -> Error "annotation line before any row")
        | l :: tl -> go ((split_cells l, []) :: acc) tl
      in
      go [] rest

(* "reads=0 writes=12 ..." — the [stats] control frame. *)
let parse_kv text =
  String.split_on_char ' ' (String.trim text)
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i -> (
             match int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1)) with
             | Some v -> Some (String.sub tok 0 i, float_of_int v)
             | None -> None)
         | None -> None)

(* Prometheus text exposition — the [metrics] control frame.  Sample lines
   only; a name keeps its label set, e.g. [bdbms_stmt_ns{quantile="0.5"}]. *)
let parse_metrics text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
               | Some v -> Some (String.sub line 0 i, v)
               | None -> None))

(* Counter deltas over the timed phase.  A counter may only grow: the
   canonical disk's counters reset when a rollback recreates the engine
   context, and a delta across such a reset is meaningless, so any counter
   that went down makes the whole set invalid instead of negative. *)
let counter_deltas ~before ~after =
  let went_down =
    List.filter_map
      (fun (k, a) ->
        match List.assoc_opt k before with
        | Some b when a < b -> Some k
        | _ -> None)
      after
  in
  if went_down <> [] then Error went_down
  else
    Ok
      (List.map
         (fun (k, a) -> (k, a -. Option.value ~default:0.0 (List.assoc_opt k before)))
         after)

let get deltas k = Option.value ~default:0.0 (List.assoc_opt k deltas)

(* ----------------------------------------------------------- tallies *)

(* Per-template operation counts and time, so a run shows which
   templates it exercised and where its time went. *)
module Tally = struct
  type entry = { mutable count : int; mutable ms : float; write : bool; mutable samples : float list }
  type t = { tbl : (string, entry) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 16; order = [] }

  let add t name ~write ms =
    match Hashtbl.find_opt t.tbl name with
    | Some e ->
        e.count <- e.count + 1;
        e.ms <- e.ms +. ms;
        e.samples <- ms :: e.samples
    | None ->
        Hashtbl.replace t.tbl name { count = 1; ms; write; samples = [ ms ] };
        t.order <- t.order @ [ name ]

  let total_ms t = Hashtbl.fold (fun _ e acc -> acc +. e.ms) t.tbl 0.0

  let lines t =
    let total = total_ms t in
    List.map
      (fun name ->
        let e = Hashtbl.find t.tbl name in
        Printf.sprintf "  %-22s %-5s count %6d  time %9.1fms  share %5.1f%%  mean %.3fms  %s" name
          (if e.write then "write" else "read")
          e.count e.ms
          (if total > 0.0 then 100.0 *. e.ms /. total else 0.0)
          (e.ms /. float_of_int e.count)
          (describe_latencies e.samples))
      t.order
end

(* ------------------------------------------------------ process facts *)

(* Peak resident set of a process in MB ([VmHWM] of /proc/PID/status). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> go ())
      in
      let v = go () in
      close_in ic;
      v

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

external monotonic_ns : unit -> int = "perfbench_monotonic_ns" [@@noalloc]

let now_ms () = float_of_int (monotonic_ns ()) /. 1e6

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* ------------------------------------------------------- host speed *)

(* The shared machine's speed drifts by a quarter and more as other
   tenants come and go (a fixed loop timed once a second took 76 to 169
   ms), so raw times from runs minutes apart are not comparable.  A fixed
   calibration loop — string hashing into a table and a sort, the kind of
   allocation and memory traffic the engine does — is timed once per
   round, between rounds, and each timing figure is scaled by the loop's
   time over [kernel_ref_ms], its time on the reference machine: the
   figures read as if the machine had kept the reference speed
   throughout.  The raw figures are printed beside them.

   The loop runs in a child process of its own ([bench.exe --calibrate]),
   with a small heap of its own, so nothing the measured code does to the
   benchmark's heap or its garbage collector reaches the loop's time; only
   the host's speed is shared.  Before each sample the child is moved onto
   the processor the benchmark was running on: the two virtual processors
   of the reference machine are not equally busy, and a loop timed on the
   other one tracked the work's speed worse. *)
let kernel_ref_ms = 0.7

let kernel_ms () =
  let t0 = now_ms () in
  let h = Hashtbl.create 64 in
  for i = 0 to 499 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let a = Array.init 2000 (fun i -> float_of_int (i * 7919 mod 2003)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  now_ms () -. t0

(* One sample: the loop once untimed, to refill the caches the measured
   work has taken over since the last sample, then the median of three
   timed runs. *)
let sample_ms () =
  ignore (kernel_ms ());
  median (List.init 3 (fun _ -> kernel_ms ()))

(* The child's side: one sample per line read, its time written back, and
   exit at end of input.  An executable that may be started as the
   calibrator calls this first thing. *)
let calibrator_flag = "--calibrate"

let serve_calibration_if_asked () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = calibrator_flag then begin
    for _ = 1 to 20 do ignore (kernel_ms ()) done;
    (try
       while true do
         ignore (input_line stdin);
         Printf.printf "%.6f\n%!" (sample_ms ())
       done
     with End_of_file -> ());
    exit 0
  end

type calibrator = { cpid : int; to_c : out_channel; from_c : in_channel }

let calibrator = ref None

let stop_calibrator () =
  match !calibrator with
  | None -> ()
  | Some c ->
      calibrator := None;
      close_out_noerr c.to_c;
      close_in_noerr c.from_c;
      ignore (Unix.waitpid [] c.cpid)

let get_calibrator () =
  match !calibrator with
  | Some c -> c
  | None ->
      let c_in, to_c = Unix.pipe ~cloexec:true () and from_c, c_out = Unix.pipe ~cloexec:true () in
      let exe = Sys.executable_name in
      let cpid = Unix.create_process exe [| exe; calibrator_flag |] c_in c_out Unix.stderr in
      Unix.close c_in;
      Unix.close c_out;
      let c = { cpid; to_c = Unix.out_channel_of_descr to_c; from_c = Unix.in_channel_of_descr from_c } in
      calibrator := Some c;
      at_exit stop_calibrator;
      c

external follow_cpu : int -> bool = "perfbench_follow_cpu"

(* The loop's median rejects a run that the hypervisor interrupted, so it
   measures how fast the processors run, not how often they are taken
   away.  That share — steal time, which reached 16% in some runs on the
   reference machine while others saw under 1% — is read from the
   processors' cumulative counters: the first line of /proc/stat, in
   jiffies, as (steal, busy) where busy is user, nice, system, irq and
   softirq time.  (0, 0) where the file cannot be read. *)
let parse_cpu_line line =
  match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
  | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ -> (
      match List.map int_of_string_opt [ user; nice; system; irq; softirq; steal ] with
      | [ Some u; Some n; Some s; Some i; Some si; Some st ] -> (st, u + n + s + i + si)
      | _ -> (0, 0))
  | _ -> (0, 0)

let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      parse_cpu_line line

(* One reading: when, the loop's slowness (> 1 when the processors run
   slower than the reference machine's) and the cumulative counters. *)
type host = { at : float; slow : float; steal : int; busy : int }

let host_sample () =
  let c = get_calibrator () in
  ignore (follow_cpu c.cpid);
  let steal, busy = cpu_jiffies () in
  output_char c.to_c '\n';
  flush c.to_c;
  let ms = float_of_string (input_line c.from_c) in
  { at = now_ms (); slow = ms /. kernel_ref_ms; steal; busy }

(* Share of the wanted processor time the hypervisor took between two
   readings, capped at one half. *)
let steal_share a b =
  let stolen = b.steal - a.steal and wanted = b.steal - a.steal + (b.busy - a.busy) in
  if stolen <= 0 || wanted <= 0 then 0.0 else Float.min 0.5 (float_of_int stolen /. float_of_int wanted)

(* Over readings [hs]: the loop's median slowness, and the share of
   processor time stolen between the first and the last reading. *)
let cpu_slowness (hs : host list) = median (List.map (fun h -> h.slow) hs)

let phase_steal (hs : host list) =
  match List.sort (fun a b -> compare a.at b.at) hs with
  | [] -> 0.0
  | first :: _ as sorted -> steal_share first (List.nth sorted (List.length sorted - 1))

(* The slowness of a total — a phase's wall time, a set-up's — over
   readings [hs]: stolen time lengthens a total in proportion.  A median
   latency is divided by [cpu_slowness] alone, since steal comes in
   bursts that delay a few requests a lot rather than every request a
   little. *)
let slowness hs = cpu_slowness hs /. (1.0 -. phase_steal hs)

(* Set-up timing.  A set-up lasts about a second, short enough for one
   burst of contention to cover all of it, so the slowness is sampled
   during it too: the set-up code calls [setup_tick] as it goes, which
   takes a sample at most every [tick_every_ms] and keeps its own time out
   of the set-up's. *)
type ticker = { mutable samples : host list; mutable excluded_ms : float; mutable last_ms : float }

let ticker = ref None
let tick_every_ms = 40.0

let take_sample t =
  let t0 = now_ms () in
  let h = host_sample () in
  t.samples <- h :: t.samples;
  t.excluded_ms <- t.excluded_ms +. (h.at -. t0);
  t.last_ms <- h.at

let setup_tick () =
  match !ticker with
  | Some t when now_ms () -. t.last_ms >= tick_every_ms -> take_sample t
  | _ -> ()

(* A set-up's time in seconds at reference speed: its wall time less the
   samples' own, over the slowness sampled before, during and just after
   it. *)
let timed_setup f =
  let t = { samples = []; excluded_ms = 0.0; last_ms = 0.0 } in
  for _ = 1 to 3 do take_sample t done;
  t.excluded_ms <- 0.0;
  ticker := Some t;
  let r, ms = Fun.protect ~finally:(fun () -> ticker := None) (fun () -> time_ms f) in
  let ms = ms -. t.excluded_ms in
  take_sample t;
  (r, ms /. 1000.0 /. slowness t.samples)

(* ------------------------------------------------------ run figures *)

(* One completed operation of a timed phase: when it ended, its latency,
   and whether it wrote. *)
type sample = { at_ms : float; ms : float; write : bool }

(* The phase's operations are cut into [segments] consecutive runs of
   equal count; each segment's rate and read and write medians are scaled
   by the slowness sampled within it (see [slowness]), and the figures are
   the medians over the segments, so a burst of contention that covers
   fewer than half the segments leaves them alone. *)
let segments = 5

type figures = {
  ops_s : float;
  read_p50 : float;
  write_p50 : float;
  per_segment : (float * float * float) list;  (* raw rate, loop slowness, steal share *)
}

let run_figures ~t0 ~(host : host list) (samples : sample array) =
  let n = Array.length samples in
  let k = max 1 (min segments n) in
  let cut s = s * n / k in
  let overall = host in
  let segs =
    List.init k (fun s ->
        let lo = cut s and hi = cut (s + 1) in
        let start = if lo = 0 then t0 else samples.(lo - 1).at_ms and stop = samples.(hi - 1).at_ms in
        let hs =
          match List.filter (fun h -> h.at > start && h.at <= stop) host with
          | [] | [ _ ] -> overall
          | hs -> hs
        in
        let cpu = cpu_slowness hs and steal = phase_steal hs in
        let part = Array.to_list (Array.sub samples lo (hi - lo)) in
        let lat w = List.filter_map (fun x -> if x.write = w then Some x.ms else None) part in
        let rate = float_of_int (hi - lo) /. ((stop -. start) /. 1000.0) in
        ((rate, cpu, steal), rate *. cpu /. (1.0 -. steal), median (lat false) /. cpu, median (lat true) /. cpu))
  in
  let med f = median (List.filter (fun x -> not (Float.is_nan x)) (List.map f segs)) in
  {
    ops_s = med (fun (_, r, _, _) -> r);
    read_p50 = med (fun (_, _, r, _) -> r);
    write_p50 = med (fun (_, _, _, w) -> w);
    per_segment = List.map (fun (s, _, _, _) -> s) segs;
  }

let describe_host (hs : host list) =
  match List.sort (fun a b -> compare a.at b.at) hs with
  | [] -> "host: no readings"
  | first :: _ as sorted ->
      Printf.sprintf "host over the phase: loop slowness %.3f (median of %d), %.1f%% of processor time stolen"
        (cpu_slowness hs) (List.length hs)
        (100.0 *. steal_share first (List.nth sorted (List.length sorted - 1)))

let describe_figures f =
  Printf.sprintf
    "segments (raw ops/s @ loop slowness/steal): %s; at reference speed: ops_s %.2f, read p50 %.3fms, write p50 %.3fms"
    (String.concat " " (List.map (fun (r, s, st) -> Printf.sprintf "%.1f@%.2f/%.0f%%" r s (100.0 *. st)) f.per_segment))
    f.ops_s f.read_p50 f.write_p50

(* ---------------------------------------------------------- results *)

(* Set-ups per run: setup_s is their median.  The last one (untraced) or
   the last two (untraced base, then traced) carry timed phases. *)
let setups_per_run = 7

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (* [] when the layer counters were invalid *)
  report : string list;  (* human-readable lines printed before the JSON *)
}

(* Correctness bookkeeping shared by the workloads: the first few
   mismatches are kept for the report. *)
module Check = struct
  type t = { mutable ok : bool; mutable notes : string list; mutable n : int }

  let create () = { ok = true; notes = []; n = 0 }

  let fail t msg =
    t.ok <- false;
    t.n <- t.n + 1;
    if t.n <= 10 then t.notes <- t.notes @ [ msg ]

  let expect t cond msg = if not cond then fail t (msg ())
end

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json r ~trace =
  let ms = if trace then r.layers else r.e2e in
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      ms
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed (String.concat ", " fields)
