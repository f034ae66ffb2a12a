open Poly_ir

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ---------- lexer ---------- *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW of string (* program arrays for parallel max min sqrt exp f64 f32 i64 i32 *)
  | LBRACE | RBRACE | LBRACK | RBRACK | LPAREN | RPAREN
  | SEMI | COMMA | COLON
  | ASSIGN | PLUSPLUS | PLUSEQ
  | LT | LE | GT | GE | EQEQ | AMPAMP
  | PLUS | MINUS | STAR | SLASH
  | EOF

let keywords =
  [ "program"; "arrays"; "for"; "parallel"; "if"; "else"; "max"; "min";
    "sqrt"; "exp"; "f64"; "f32"; "i64"; "i32" ]

let token_name = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s | KW s -> s
  | LBRACE -> "{" | RBRACE -> "}" | LBRACK -> "[" | RBRACK -> "]"
  | LPAREN -> "(" | RPAREN -> ")"
  | SEMI -> ";" | COMMA -> "," | COLON -> ":"
  | ASSIGN -> "=" | PLUSPLUS -> "++" | PLUSEQ -> "+="
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | EQEQ -> "=="
  | AMPAMP -> "&&"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | EOF -> "<eof>"

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
      if !j < n && src.[!j] = '.' then begin
        incr j;
        while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
        if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
          incr j;
          if !j < n && (src.[!j] = '+' || src.[!j] = '-') then incr j;
          while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done
        end;
        push (FLOAT (float_of_string (String.sub src !i (!j - !i))))
      end
      else push (INT (int_of_string (String.sub src !i (!j - !i))));
      i := !j
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let j = ref !i in
      let idc c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '_'
      in
      while !j < n && idc src.[!j] do incr j done;
      let w = String.sub src !i (!j - !i) in
      i := !j;
      push (if List.mem w keywords then KW w else IDENT w)
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "++" -> push PLUSPLUS; i := !i + 2
      | "+=" -> push PLUSEQ; i := !i + 2
      | "<=" -> push LE; i := !i + 2
      | ">=" -> push GE; i := !i + 2
      | "==" -> push EQEQ; i := !i + 2
      | "&&" -> push AMPAMP; i := !i + 2
      | _ ->
        (match c with
        | '{' -> push LBRACE | '}' -> push RBRACE
        | '[' -> push LBRACK | ']' -> push RBRACK
        | '(' -> push LPAREN | ')' -> push RPAREN
        | ';' -> push SEMI | ',' -> push COMMA | ':' -> push COLON
        | '=' -> push ASSIGN | '<' -> push LT | '>' -> push GT
        | '+' -> push PLUS | '-' -> push MINUS
        | '*' -> push STAR | '/' -> push SLASH
        | c -> fail "line %d: unexpected character %C" !line c);
        incr i
    end
  done;
  push EOF;
  List.rev !toks

(* ---------- parser state ---------- *)

type st = {
  mutable toks : (token * int) list;
  mutable params : string list;
  mutable scope : string list;  (* loop variables in scope *)
  mutable stmt_counter : int;
}

let peek st = match st.toks with [] -> EOF | (t, _) :: _ -> t
let cur_line st = match st.toks with [] -> 0 | (_, l) :: _ -> l
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect st t =
  if peek st = t then advance st
  else
    fail "line %d: expected '%s' but found '%s'" (cur_line st) (token_name t)
      (token_name (peek st))

let parse_ident st =
  match peek st with
  | IDENT s -> advance st; s
  | t -> fail "line %d: expected identifier, found '%s'" (cur_line st) (token_name t)

(* ---------- affine expressions ---------- *)

let rec parse_aff st =
  let lhs = parse_aff_term st in
  let rec loop acc =
    match peek st with
    | PLUS -> advance st; loop (Ir.aff_add acc (parse_aff_term st))
    | MINUS -> advance st; loop (Ir.aff_sub acc (parse_aff_term st))
    | _ -> acc
  in
  loop lhs

and parse_aff_term st =
  let lhs = parse_aff_factor st in
  let rec loop acc =
    match peek st with
    | STAR ->
      advance st;
      let rhs = parse_aff_factor st in
      let is_const (a : Ir.aff) = a.Ir.var_coefs = [] && a.Ir.param_coefs = [] in
      if is_const acc then loop (Ir.aff_scale acc.Ir.const rhs)
      else if is_const rhs then loop (Ir.aff_scale rhs.Ir.const acc)
      else fail "line %d: non-affine product in index/bound" (cur_line st)
    | _ -> acc
  in
  loop lhs

and parse_aff_factor st =
  match peek st with
  | INT n -> advance st; Ir.aff_const n
  | MINUS -> advance st; Ir.aff_scale (-1) (parse_aff_factor st)
  | IDENT v ->
    advance st;
    if List.mem v st.scope then Ir.aff_var v
    else if List.mem v st.params then Ir.aff_param v
    else fail "line %d: unknown variable '%s'" (cur_line st) v
  | LPAREN ->
    advance st;
    let a = parse_aff st in
    expect st RPAREN;
    a
  | t -> fail "line %d: expected affine expression, found '%s'" (cur_line st) (token_name t)

let parse_aff_list st kw =
  (* either a single aff, or kw(aff, aff, ...) *)
  match peek st with
  | KW k when k = kw ->
    advance st;
    expect st LPAREN;
    let rec loop acc =
      let a = parse_aff st in
      if peek st = COMMA then begin advance st; loop (a :: acc) end
      else List.rev (a :: acc)
    in
    let l = loop [] in
    expect st RPAREN;
    l
  | _ -> [ parse_aff st ]

(* ---------- accesses and scalar expressions ---------- *)

let parse_indices st =
  let rec loop acc =
    if peek st = LBRACK then begin
      advance st;
      let a = parse_aff st in
      expect st RBRACK;
      loop (a :: acc)
    end
    else List.rev acc
  in
  loop []

let rec parse_expr st =
  let lhs = parse_expr_term st in
  let rec loop acc =
    match peek st with
    | PLUS -> advance st; loop (Ir.Bin (Ir.Add, acc, parse_expr_term st))
    | MINUS -> advance st; loop (Ir.Bin (Ir.Sub, acc, parse_expr_term st))
    | _ -> acc
  in
  loop lhs

and parse_expr_term st =
  let lhs = parse_expr_factor st in
  let rec loop acc =
    match peek st with
    | STAR -> advance st; loop (Ir.Bin (Ir.Mul, acc, parse_expr_factor st))
    | SLASH -> advance st; loop (Ir.Bin (Ir.Div, acc, parse_expr_factor st))
    | _ -> acc
  in
  loop lhs

and parse_expr_factor st =
  match peek st with
  | FLOAT f -> advance st; Ir.Const f
  | INT n -> advance st; Ir.Const (float_of_int n)
  | MINUS -> advance st; Ir.Neg (parse_expr_factor st)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | KW "sqrt" ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Ir.Sqrt e
  | KW "exp" ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Ir.Exp e
  | KW (("max" | "min") as k) ->
    advance st;
    expect st LPAREN;
    let a = parse_expr st in
    expect st COMMA;
    let b = parse_expr st in
    expect st RPAREN;
    Ir.Bin ((if k = "max" then Ir.Max else Ir.Min), a, b)
  | IDENT name ->
    advance st;
    let indices = parse_indices st in
    if indices = [] then
      fail "line %d: scalar variables are not supported; use a 0-d array access or a loop variable in an index" (cur_line st)
    else Ir.Load { Ir.array = name; indices; kind = Ir.Read }
  | t -> fail "line %d: expected expression, found '%s'" (cur_line st) (token_name t)

(* ---------- items ---------- *)

let rec parse_items st =
  let rec loop acc =
    match peek st with
    | RBRACE -> List.rev acc
    | _ -> loop (parse_item st :: acc)
  in
  loop []

and parse_cond st =
  (* conjunction of affine comparisons: a <= b && c == d && ... *)
  let one () =
    let lhs = parse_aff st in
    match peek st with
    | LE -> advance st; let r = parse_aff st in
      [ Ir.cond_ge (Ir.aff_sub r lhs) ]
    | LT -> advance st; let r = parse_aff st in
      [ Ir.cond_ge (Ir.aff_sub (Ir.aff_sub r lhs) (Ir.aff_const 1)) ]
    | GE -> advance st; let r = parse_aff st in
      [ Ir.cond_ge (Ir.aff_sub lhs r) ]
    | GT -> advance st; let r = parse_aff st in
      [ Ir.cond_ge (Ir.aff_sub (Ir.aff_sub lhs r) (Ir.aff_const 1)) ]
    | EQEQ -> advance st; let r = parse_aff st in
      [ Ir.cond_eq (Ir.aff_sub lhs r) ]
    | t ->
      fail "line %d: expected comparison in branch condition, found '%s'"
        (cur_line st) (token_name t)
  in
  let rec loop acc =
    let cs = one () in
    if peek st = AMPAMP then begin advance st; loop (acc @ cs) end
    else acc @ cs
  in
  loop []

and parse_item st =
  match peek st with
  | KW "if" ->
    advance st;
    expect st LPAREN;
    let conds = parse_cond st in
    expect st RPAREN;
    expect st LBRACE;
    let then_ = parse_items st in
    expect st RBRACE;
    let else_ =
      if peek st = KW "else" then begin
        advance st;
        expect st LBRACE;
        let e = parse_items st in
        expect st RBRACE;
        e
      end
      else []
    in
    Ir.if_ ~else_ conds then_
  | KW "parallel" ->
    advance st;
    (match parse_item st with
    | Ir.Loop l -> Ir.Loop { l with Ir.parallel = true }
    | _ -> fail "line %d: 'parallel' must precede a for loop" (cur_line st))
  | KW "for" ->
    advance st;
    expect st LPAREN;
    let var = parse_ident st in
    expect st ASSIGN;
    let lo = parse_aff_list st "max" in
    expect st SEMI;
    let v2 = parse_ident st in
    if v2 <> var then
      fail "line %d: loop condition must test '%s'" (cur_line st) var;
    expect st LT;
    let hi = parse_aff_list st "min" in
    expect st SEMI;
    let v3 = parse_ident st in
    if v3 <> var then
      fail "line %d: loop increment must update '%s'" (cur_line st) var;
    let step =
      match peek st with
      | PLUSPLUS -> advance st; 1
      | PLUSEQ -> (
        advance st;
        match peek st with
        | INT s when s > 0 -> advance st; s
        | _ -> fail "line %d: step must be a positive integer" (cur_line st))
      | t -> fail "line %d: expected '++' or '+=', found '%s'" (cur_line st) (token_name t)
    in
    expect st RPAREN;
    expect st LBRACE;
    st.scope <- var :: st.scope;
    let body = parse_items st in
    st.scope <- List.tl st.scope;
    expect st RBRACE;
    Ir.loop_minmax var ~lo ~hi ~step body
  | IDENT name ->
    advance st;
    let indices = parse_indices st in
    if indices = [] then
      fail "line %d: expected an array access on the left-hand side" (cur_line st);
    expect st ASSIGN;
    let rhs = parse_expr st in
    expect st SEMI;
    let sname = Printf.sprintf "S%d" st.stmt_counter in
    st.stmt_counter <- st.stmt_counter + 1;
    Ir.assign sname ~target:{ Ir.array = name; indices; kind = Ir.Write } rhs
  | t -> fail "line %d: expected statement or loop, found '%s'" (cur_line st) (token_name t)

let parse_array_decls st =
  expect st (KW "arrays");
  expect st LBRACE;
  let rec loop acc =
    match peek st with
    | RBRACE -> advance st; List.rev acc
    | IDENT name ->
      advance st;
      let extents = parse_indices st in
      if extents = [] then
        fail "line %d: array '%s' needs at least one dimension" (cur_line st) name;
      expect st COLON;
      let elem_size =
        match peek st with
        | KW "f64" | KW "i64" -> advance st; 8
        | KW "f32" | KW "i32" -> advance st; 4
        | t -> fail "line %d: expected element type, found '%s'" (cur_line st) (token_name t)
      in
      expect st SEMI;
      loop ({ Ir.array_name = name; extents; elem_size } :: acc)
    | t -> fail "line %d: expected array declaration, found '%s'" (cur_line st) (token_name t)
  in
  loop []

let parse src =
  let st = { toks = tokenize src; params = []; scope = []; stmt_counter = 0 } in
  expect st (KW "program");
  let prog_name = parse_ident st in
  if peek st = LPAREN then begin
    advance st;
    let rec loop acc =
      let p = parse_ident st in
      if peek st = COMMA then begin advance st; loop (p :: acc) end
      else List.rev (p :: acc)
    in
    let ps = if peek st = RPAREN then [] else loop [] in
    expect st RPAREN;
    st.params <- ps
  end;
  expect st LBRACE;
  let arrays =
    match peek st with KW "arrays" -> parse_array_decls st | _ -> []
  in
  let body = parse_items st in
  expect st RBRACE;
  expect st EOF;
  let prog = { Ir.prog_name; params = st.params; arrays; body } in
  match Ir.validate prog with
  | Ok () -> prog
  | Error m -> fail "validation: %s" m

(* ---------- printing (re-parsable) ---------- *)

let to_string prog =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let aff_str a = Format.asprintf "%a" Ir.pp_aff a in
  let bound kw = function
    | [ a ] -> aff_str a
    | l -> Printf.sprintf "%s(%s)" kw (String.concat ", " (List.map aff_str l))
  in
  let access_str (a : Ir.access) =
    a.Ir.array
    ^ String.concat "" (List.map (fun i -> "[" ^ aff_str i ^ "]") a.Ir.indices)
  in
  let rec expr_str = function
    | Ir.Load a -> access_str a
    | Ir.Const f ->
      if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%g" f
    | Ir.Bin (Ir.Max, a, b) -> Printf.sprintf "max(%s, %s)" (expr_str a) (expr_str b)
    | Ir.Bin (Ir.Min, a, b) -> Printf.sprintf "min(%s, %s)" (expr_str a) (expr_str b)
    | Ir.Bin (op, a, b) ->
      let s = match op with
        | Ir.Add -> "+" | Ir.Sub -> "-" | Ir.Mul -> "*" | Ir.Div -> "/"
        | _ -> assert false
      in
      Printf.sprintf "(%s %s %s)" (expr_str a) s (expr_str b)
    | Ir.Neg e -> Printf.sprintf "(0.0 - %s)" (expr_str e)
    | Ir.Sqrt e -> Printf.sprintf "sqrt(%s)" (expr_str e)
    | Ir.Exp e -> Printf.sprintf "exp(%s)" (expr_str e)
  in
  let cond_str (c : Ir.cond) =
    Printf.sprintf "%s %s 0" (aff_str c.Ir.cond_aff)
      (if c.Ir.cond_eq then "==" else ">=")
  in
  let rec item ind = function
    | Ir.If b ->
      pf "%sif (%s) {\n" ind
        (String.concat " && " (List.map cond_str b.Ir.conds));
      List.iter (item (ind ^ "  ")) b.Ir.then_;
      if b.Ir.else_ = [] then pf "%s}\n" ind
      else begin
        pf "%s} else {\n" ind;
        List.iter (item (ind ^ "  ")) b.Ir.else_;
        pf "%s}\n" ind
      end
    | Ir.Stmt s ->
      pf "%s%s = %s;\n" ind (access_str s.Ir.target) (expr_str s.Ir.rhs)
    | Ir.Loop l ->
      pf "%s%sfor (%s = %s; %s < %s; %s %s) {\n" ind
        (if l.Ir.parallel then "parallel " else "")
        l.Ir.var (bound "max" l.Ir.lo) l.Ir.var (bound "min" l.Ir.hi) l.Ir.var
        (if l.Ir.step = 1 then "++" else Printf.sprintf "+= %d" l.Ir.step);
      List.iter (item (ind ^ "  ")) l.Ir.body;
      pf "%s}\n" ind
  in
  pf "program %s" prog.Ir.prog_name;
  if prog.Ir.params <> [] then pf "(%s)" (String.concat ", " prog.Ir.params);
  pf " {\n";
  if prog.Ir.arrays <> [] then begin
    pf "  arrays {\n";
    List.iter
      (fun (d : Ir.array_decl) ->
        pf "    %s%s : %s;\n" d.Ir.array_name
          (String.concat ""
             (List.map (fun e -> "[" ^ aff_str e ^ "]") d.Ir.extents))
          (if d.Ir.elem_size = 8 then "f64" else "f32"))
      prog.Ir.arrays;
    pf "  }\n"
  end;
  List.iter (item "  ") prog.Ir.body;
  pf "}\n";
  Buffer.contents buf

(* Teach the CLI's crash-proof boundary that our parse errors mean the
   *input* is bad (exit 3), not the tool; the "line N" prefix becomes the
   diagnostic span. *)
let () =
  Engine.Guard.register_classifier (function
    | Parse_error msg -> Some (Engine.Guard.invalid msg)
    | _ -> None)
