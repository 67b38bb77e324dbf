(* The [analytics] workload: one connection in closed loop against a
   database several times larger than the server's buffer pool, sending a
   seeded rotation of read templates — a hash join with GROUP BY,
   DISTINCT, top-k, a LIKE scan over sequences, and annotated scans with
   ANNOTATION/AWHERE/PROMOTE — with two bulk multi-row INSERTs of new
   genes closing every round.

   Every answer is recorded with the number of rounds (and so of bulk
   inserts) that preceded it and checked after the timed phase against the
   same query computed here over the generated rows and annotations. *)

open Common
module P = Bdbms_server.Protocol

let initial_genes = 4000
let proteins = 4000
let curated = 300
let families = 20
let names = 200
let keywords = 10
let pool_pages = 48
let insert_rows = 20
let inserts_per_round = 2
let rounds_per_s = 3.5

(* read templates per round, in a seeded order, then the bulk inserts; the
   weights put the median read inside one template's latencies (the
   join), not on the edge between two *)
let round_templates =
  [ "join_group"; "join_group"; "join_group"; "distinct"; "distinct"; "topk"; "like"; "awhere"; "promote" ]

(* -------------------------------------------------------------- data *)

type gene = { gid : string; gname : string; family : int; seq : string }
type protein = { pname : string; pgid : string; score : int }

type data = {
  genes : gene array;  (* initial genes, then every bulk insert in order *)
  prots : protein array;
  cur_family : int array;
  cur_anns : string list array;  (* annotation bodies on each Curated.CName *)
  mutable user_bytes : int;
}

let gene_of rng i =
  {
    gid = Printf.sprintf "g%06d" i;
    gname = Printf.sprintf "fam%03d" (Rng.int rng names);
    family = Rng.int rng families;
    seq = Rng.string rng ~alphabet:"ACGT" ~len:(120 + Rng.int rng 120);
  }

let gene_bytes g = String.length g.gid + String.length g.gname + 8 + String.length g.seq

(* The data a seed produces, including every gene the timed phase will
   insert (generated up front so the inserts are part of the input). *)
let generate ~seed ~rounds =
  let rng = Rng.make seed 101 in
  let total = initial_genes + (rounds * inserts_per_round * insert_rows) in
  let genes = Array.init total (gene_of rng) in
  let scores = Array.init proteins (fun i -> i * 7) in
  Rng.shuffle rng scores;
  let prots =
    Array.init proteins (fun i ->
        { pname = Printf.sprintf "p%06d" i; pgid = genes.(Rng.int rng initial_genes).gid; score = scores.(i) })
  in
  let cur_family = Array.init curated (fun _ -> Rng.int rng families) in
  { genes; prots; cur_family; cur_anns = Array.make curated []; user_bytes = 0 }

let cid i = Printf.sprintf "c%05d" i
let gene_tuple g = Printf.sprintf "(%s, %s, %d, %s)" (q g.gid) (q g.gname) g.family (q g.seq)

type env = { server : Wire.server; conn : Wire.conn; data : data; rng : Rng.t }

let setup ~serve ~dir ~seed ~rounds =
  let data = generate ~seed ~rounds in
  let server = Wire.start ~serve ~dir ~db:(Filename.concat dir "analytics.db") ~pool_pages in
  let conn = Wire.connect server ~user:"admin" ~tid_base:1_000_000 in
  let ex sql = ignore (Wire.exec_exn conn sql) in
  ex "CREATE TABLE Gene (GID TEXT, GName TEXT, Family INT, GSequence DNA)";
  ex "CREATE TABLE Protein (PName TEXT, GID TEXT, Score INT)";
  ex "CREATE TABLE Curated (CID TEXT, CName TEXT, Family INT)";
  ex "CREATE ANNOTATION TABLE cnotes ON Curated";
  List.iter
    (fun gs ->
      data.user_bytes <- List.fold_left (fun acc g -> acc + gene_bytes g) data.user_bytes gs;
      ex ("INSERT INTO Gene VALUES " ^ String.concat ", " (List.map gene_tuple gs)))
    (chunks 200 (Array.to_list (Array.sub data.genes 0 initial_genes)));
  List.iter
    (fun ps ->
      ex
        ("INSERT INTO Protein VALUES "
        ^ String.concat ", "
            (List.map
               (fun p ->
                 data.user_bytes <- data.user_bytes + String.length p.pname + String.length p.pgid + 8;
                 Printf.sprintf "(%s, %s, %d)" (q p.pname) (q p.pgid) p.score)
               ps)))
    (chunks 200 (Array.to_list data.prots));
  ex
    ("INSERT INTO Curated VALUES "
    ^ String.concat ", "
        (List.init curated (fun i ->
             data.user_bytes <- data.user_bytes + 6 + 10 + 8;
             Printf.sprintf "(%s, %s, %d)" (q (cid i)) (q (Printf.sprintf "cur%05d" i)) data.cur_family.(i))));
  (* annotations: one keyword note per family over three families each,
     plus single-cell notes on a seeded tenth of the rows *)
  let rng = Rng.make seed 102 in
  let note body sel =
    data.user_bytes <- data.user_bytes + String.length body;
    ex (Printf.sprintf "ADD ANNOTATION TO Curated.cnotes VALUE '%s' ON (SELECT CName FROM Curated WHERE %s)" body sel)
  in
  for k = 0 to keywords - 1 do
    for j = 0 to 2 do
      let f = Rng.int rng families in
      let body = Printf.sprintf "kw%d family review %d" k j in
      note body (Printf.sprintf "Family = %d" f);
      Array.iteri (fun i fam -> if fam = f then data.cur_anns.(i) <- body :: data.cur_anns.(i)) data.cur_family
    done
  done;
  for i = 0 to curated - 1 do
    if Rng.int rng 10 = 0 then begin
      let body = Printf.sprintf "kw%d checked row %d" (Rng.int rng keywords) i in
      note body (Printf.sprintf "CID = '%s'" (cid i));
      data.cur_anns.(i) <- body :: data.cur_anns.(i)
    end
  done;
  (* warm-up: one pass over every read template *)
  let env = { server; conn; data; rng = Rng.make seed 103 } in
  List.iter (fun sql -> ignore (Wire.exec_exn conn sql))
    [
      "SELECT g.Family, COUNT(*) AS n FROM Gene g, Protein p WHERE g.GID = p.GID GROUP BY g.Family";
      "SELECT DISTINCT GName FROM Gene WHERE Family = 0";
      "SELECT PName, Score FROM Protein ORDER BY Score DESC LIMIT 10";
      "SELECT GID FROM Gene WHERE Family = 0 AND GSequence LIKE '%ACGTA%'";
      "SELECT CID, CName FROM Curated ANNOTATION(cnotes) AWHERE ANN CONTAINS 'kw0'";
      "SELECT CID PROMOTE (CName) FROM Curated ANNOTATION(cnotes) WHERE Family = 0";
    ];
  env

(* ---------------------------------------------------------- templates *)

type query = {
  template : string;
  sql : string;
  expect : int -> table -> string option;
      (* rounds completed before the query -> answer -> mismatch *)
}

let sorted l = List.sort compare l

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* the genes present after [rounds] rounds of inserts *)
let live_genes data rounds = Array.sub data.genes 0 (initial_genes + (rounds * inserts_per_round * insert_rows))

let compare_sets what expected got =
  if sorted expected = sorted got then None
  else Some (Printf.sprintf "%s: expected %d rows, got %d" what (List.length expected) (List.length got))

let cells (t : table) = List.map fst t.rows

let make_query data rng template =
  match template with
  | "join_group" ->
      let x = Rng.int rng (proteins * 7) in
      {
        template;
        sql =
          Printf.sprintf
            "SELECT g.Family, COUNT(*) AS n FROM Gene g, Protein p WHERE g.GID = p.GID AND p.Score < %d GROUP BY g.Family"
            x;
        expect =
          (fun _ t ->
            let fam = Hashtbl.create 64 in
            Array.iteri (fun i g -> if i < initial_genes then Hashtbl.replace fam g.gid g.family) data.genes;
            let counts = Array.make families 0 in
            Array.iter (fun p -> if p.score < x then let f = Hashtbl.find fam p.pgid in counts.(f) <- counts.(f) + 1) data.prots;
            let expected =
              List.filter_map (fun f -> if counts.(f) > 0 then Some [ string_of_int f; string_of_int counts.(f) ] else None)
                (List.init families Fun.id)
            in
            compare_sets "join_group" expected (cells t));
      }
  | "distinct" ->
      let f = Rng.int rng families in
      {
        template;
        sql = Printf.sprintf "SELECT DISTINCT GName FROM Gene WHERE Family = %d" f;
        expect =
          (fun ins t ->
            let h = Hashtbl.create 64 in
            Array.iter (fun g -> if g.family = f then Hashtbl.replace h g.gname ()) (live_genes data ins);
            compare_sets "distinct" (Hashtbl.fold (fun k () acc -> [ k ] :: acc) h []) (cells t));
      }
  | "topk" ->
      let x = Rng.int rng (proteins * 7) in
      {
        template;
        sql = Printf.sprintf "SELECT PName, Score FROM Protein WHERE Score > %d ORDER BY Score DESC LIMIT 10" x;
        expect =
          (fun _ t ->
            let above = List.filter (fun p -> p.score > x) (Array.to_list data.prots) in
            let top = List.sort (fun a b -> compare b.score a.score) above in
            let expected = List.filteri (fun i _ -> i < 10) top |> List.map (fun p -> [ p.pname; string_of_int p.score ]) in
            if expected = cells t then None else Some "topk: rows or order differ");
      }
  | "like" ->
      let f = Rng.int rng families in
      let pat = Rng.string rng ~alphabet:"ACGT" ~len:5 in
      {
        template;
        sql = Printf.sprintf "SELECT GID FROM Gene WHERE Family = %d AND GSequence LIKE '%%%s%%'" f pat;
        expect =
          (fun ins t ->
            let expected =
              Array.to_list (live_genes data ins)
              |> List.filter (fun g -> g.family = f && contains ~sub:pat g.seq)
              |> List.map (fun g -> [ g.gid ])
            in
            compare_sets "like" expected (cells t));
      }
  | "awhere" ->
      let kw = Printf.sprintf "kw%d" (Rng.int rng keywords) in
      {
        template;
        sql = Printf.sprintf "SELECT CID, CName FROM Curated ANNOTATION(cnotes) AWHERE ANN CONTAINS '%s'" kw;
        expect =
          (fun _ t ->
            let expected =
              List.filter_map
                (fun i ->
                  if List.exists (fun b -> contains ~sub:(kw ^ " ") b) data.cur_anns.(i) then
                    Some [ cid i; Printf.sprintf "cur%05d" i ]
                  else None)
                (List.init curated Fun.id)
            in
            compare_sets "awhere" expected (cells t));
      }
  | "promote" ->
      let f = Rng.int rng families in
      {
        template;
        sql = Printf.sprintf "SELECT CID PROMOTE (CName) FROM Curated ANNOTATION(cnotes) WHERE Family = %d" f;
        expect =
          (fun _ t ->
            let expected =
              List.filter_map
                (fun i ->
                  if data.cur_family.(i) = f then Some (cid i ^ "/" ^ string_of_int (List.length data.cur_anns.(i)))
                  else None)
                (List.init curated Fun.id)
            in
            let got = List.map (fun (c, anns) -> String.concat "" c ^ "/" ^ string_of_int (List.length anns)) t.rows in
            if sorted expected = sorted got then None else Some "promote: rows or promoted annotations differ");
      }
  | other -> invalid_arg other

(* ---------------------------------------------------------------- run *)

(* The timed rounds; answers are kept with the number of rounds before
   them and checked afterwards. *)
let workload env ~rounds answers (ph : Wire.phase) =
  let data = env.data in
  for r = 0 to rounds - 1 do
    Wire.sample_host ph;
    let order = Array.of_list round_templates in
    Rng.shuffle env.rng order;
    Array.iter
      (fun template ->
        let qy = make_query data env.rng template in
        match Wire.send ph env.conn template ~write:false qy.sql with
        | Some resp -> answers := (qy, r, resp) :: !answers
        | None -> ())
      order;
    for b = 0 to inserts_per_round - 1 do
      let batch = Array.sub data.genes (initial_genes + (((r * inserts_per_round) + b) * insert_rows)) insert_rows in
      Array.iter (fun g -> data.user_bytes <- data.user_bytes + gene_bytes g) batch;
      ignore
        (Wire.send ph env.conn "bulk_insert" ~write:true
           ("INSERT INTO Gene VALUES " ^ String.concat ", " (Array.to_list (Array.map gene_tuple batch))))
    done
  done

let check_answers env ~rounds answers (chk : Check.t) =
  List.iter
    (fun (qy, inserted, resp) ->
      match resp with
      | P.Rows { rendered } -> (
          match parse_table rendered with
          | Ok t -> Option.iter (Check.fail chk) (qy.expect inserted t)
          | Error e -> Check.fail chk (qy.template ^ ": " ^ e))
      | r -> Check.fail chk (qy.template ^ " answered " ^ Wire.response_text r))
    answers;
  let count = Wire.rows_exn env.conn "SELECT COUNT(*) AS n FROM Gene" in
  Check.expect chk
    (cells count = [ [ string_of_int (initial_genes + (rounds * inserts_per_round * insert_rows)) ] ])
    (fun () -> "gene count after the bulk inserts differs")

let run ~serve ~workdir ~seed ~seconds ~trace =
  let rounds = int_of_float (rounds_per_s *. float_of_int seconds) in
  let chk = Check.create () in
  let setups = ref [] and servers = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Wire.kill_quiet !servers) @@ fun () ->
  let fresh k =
    let dir = Filename.concat workdir (Printf.sprintf "analytics-%d" k) in
    rm_rf dir;
    Unix.mkdir dir 0o755;
    let env, secs = timed_setup (fun () -> setup ~serve ~dir ~seed ~rounds) in
    servers := env.server :: !servers;
    setups := secs :: !setups;
    (dir, env)
  in
  (* close the server; its files' size after the clean shutdown *)
  let finish (dir, env) =
    Wire.close env.conn;
    let rss = Wire.stop env.server in
    let db = env.server.Wire.db in
    let bytes = file_size db + file_size (db ^ ".wal") in
    rm_rf dir;
    (rss, bytes)
  in
  let phase (dir, env) ~traced =
    let answers = ref [] in
    let o = Wire.timed ~mon:env.conn ~chk ~traced ~fetch_every:1 (workload env ~rounds answers) in
    check_answers env ~rounds !answers chk;
    let rss, bytes = finish (dir, env) in
    (o, rss, bytes, env.data.user_bytes)
  in
  let phases = if trace then 2 else 1 in
  for k = 1 to setups_per_run - phases do
    ignore (finish (fresh k))
  done;
  let base = if trace then Some (phase (fresh (setups_per_run - 1)) ~traced:false) else None in
  let ((last, rss, bytes, user_bytes) as final) = phase (fresh setups_per_run) ~traced:trace in
  servers := [];
  let main, _, _, _ = Option.value base ~default:final in
  Wire.result
    ~title:
      [
        Printf.sprintf
          "analytics: %d genes (+%d per insert, %d inserts), %d proteins, %d curated rows; pool %d pages; database %.0f KiB = %.1fx pool"
          initial_genes insert_rows (rounds * inserts_per_round) proteins curated pool_pages (float_of_int bytes /. 1024.0)
          (float_of_int bytes /. float_of_int (pool_pages * 4096));
      ]
    ~setups:!setups ~main
    ~traced:(if trace then Some last else None)
    ~bytes ~user_bytes ~rss ~chk
