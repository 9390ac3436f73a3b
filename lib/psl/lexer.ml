type token =
  | IDENT of string
  | INT of int
  | TRUE
  | FALSE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | PIPE
  | SUFFIX_IMPL
  | SUFFIX_IMPL_NEXT
  | COMMA
  | DOTDOT
  | SEMI
  | AT
  | BANG
  | AND_AND
  | OR_OR
  | ARROW
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | KW_ALWAYS
  | KW_EVENTUALLY
  | KW_NEVER
  | KW_NEXT
  | KW_NEXT_A
  | KW_NEXT_E
  | KW_NEXTE
  | KW_UNTIL
  | KW_WEAK_UNTIL
  | KW_RELEASE
  | KW_BEFORE
  | KW_PROPERTY
  | KW_CONST
  | EOF

type located = {
  token : token;
  line : int;
  col : int;
}

exception Lex_error of {
  line : int;
  col : int;
  message : string;
}

let keyword_of_ident = function
  | "always" -> Some KW_ALWAYS
  | "eventually" -> Some KW_EVENTUALLY
  | "never" -> Some KW_NEVER
  | "next" -> Some KW_NEXT
  | "next_a" -> Some KW_NEXT_A
  | "next_e" -> Some KW_NEXT_E
  | "nexte" -> Some KW_NEXTE
  | "until" -> Some KW_UNTIL
  | "weak_until" -> Some KW_WEAK_UNTIL
  | "release" -> Some KW_RELEASE
  | "before" -> Some KW_BEFORE
  | "property" -> Some KW_PROPERTY
  | "const" -> Some KW_CONST
  | "true" -> Some TRUE
  | "false" -> Some FALSE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let len = String.length src in
  let line = ref 1 and bol = ref 0 in
  let error i message =
    raise (Lex_error { line = !line; col = i - !bol + 1; message })
  in
  (* Scans from position [i]; accumulates located tokens in reverse. *)
  let rec scan i acc =
    if i >= len then List.rev ({ token = EOF; line = !line; col = i - !bol + 1 } :: acc)
    else
      let emit ?(width = 1) token =
        let located = { token; line = !line; col = i - !bol + 1 } in
        scan (i + width) (located :: acc)
      in
      match src.[i] with
      | ' ' | '\t' | '\r' -> scan (i + 1) acc
      | '\n' ->
        incr line;
        bol := i + 1;
        scan (i + 1) acc
      | '-' when i + 1 < len && src.[i + 1] = '-' ->
        let rec skip j = if j < len && src.[j] <> '\n' then skip (j + 1) else j in
        scan (skip (i + 2)) acc
      | '-' when i + 1 < len && src.[i + 1] = '>' -> emit ~width:2 ARROW
      | '-' -> emit MINUS
      | '(' -> emit LPAREN
      | ')' -> emit RPAREN
      | '[' -> emit LBRACKET
      | ']' -> emit RBRACKET
      | ',' -> emit COMMA
      | '.' when i + 1 < len && src.[i + 1] = '.' -> emit ~width:2 DOTDOT
      | ';' -> emit SEMI
      | '@' -> emit AT
      | '+' -> emit PLUS
      | '*' -> emit STAR
      | '&' when i + 1 < len && src.[i + 1] = '&' -> emit ~width:2 AND_AND
      | '&' -> error i "expected '&&'"
      | '|' when i + 1 < len && src.[i + 1] = '|' -> emit ~width:2 OR_OR
      | '|' when i + 2 < len && src.[i + 1] = '-' && src.[i + 2] = '>' ->
        emit ~width:3 SUFFIX_IMPL
      | '|' when i + 2 < len && src.[i + 1] = '=' && src.[i + 2] = '>' ->
        emit ~width:3 SUFFIX_IMPL_NEXT
      | '|' -> emit PIPE
      | '{' -> emit LBRACE
      | '}' -> emit RBRACE
      | '!' when i + 1 < len && src.[i + 1] = '=' -> emit ~width:2 NEQ
      | '!' -> emit BANG
      | '=' when i + 1 < len && src.[i + 1] = '=' -> emit ~width:2 EQ
      | '=' -> emit EQ
      | '<' when i + 1 < len && src.[i + 1] = '=' -> emit ~width:2 LE
      | '<' when i + 1 < len && src.[i + 1] = '>' -> emit ~width:2 NEQ
      | '<' -> emit LT
      | '>' when i + 1 < len && src.[i + 1] = '=' -> emit ~width:2 GE
      | '>' -> emit GT
      | c when is_digit c ->
        let rec stop j = if j < len && is_digit src.[j] then stop (j + 1) else j in
        let j = stop i in
        let text = String.sub src i (j - i) in
        (match int_of_string_opt text with
         | Some n -> emit ~width:(j - i) (INT n)
         | None -> error i (Printf.sprintf "integer literal %S out of range" text))
      | c when is_ident_start c ->
        let rec stop j = if j < len && is_ident_char src.[j] then stop (j + 1) else j in
        let j = stop i in
        let text = String.sub src i (j - i) in
        let token =
          match keyword_of_ident text with
          | Some kw -> kw
          | None -> IDENT text
        in
        emit ~width:(j - i) token
      | c -> error i (Printf.sprintf "unexpected character %C" c)
  in
  scan 0 []

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | TRUE -> "'true'"
  | FALSE -> "'false'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | PIPE -> "'|'"
  | SUFFIX_IMPL -> "'|->'"
  | SUFFIX_IMPL_NEXT -> "'|=>'"
  | COMMA -> "','"
  | DOTDOT -> "'..'"
  | SEMI -> "';'"
  | AT -> "'@'"
  | BANG -> "'!'"
  | AND_AND -> "'&&'"
  | OR_OR -> "'||'"
  | ARROW -> "'->'"
  | EQ -> "'=='"
  | NEQ -> "'!='"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | KW_ALWAYS -> "'always'"
  | KW_EVENTUALLY -> "'eventually'"
  | KW_NEVER -> "'never'"
  | KW_NEXT -> "'next'"
  | KW_NEXT_A -> "'next_a'"
  | KW_NEXT_E -> "'next_e'"
  | KW_NEXTE -> "'nexte'"
  | KW_UNTIL -> "'until'"
  | KW_WEAK_UNTIL -> "'weak_until'"
  | KW_RELEASE -> "'release'"
  | KW_BEFORE -> "'before'"
  | KW_PROPERTY -> "'property'"
  | KW_CONST -> "'const'"
  | EOF -> "end of input"

