(** Tokenizer for the property language.

    Comments run from [--] to end of line.  [=] and [==] both lex to
    {!EQ} inside expressions; the property-file parser interprets the
    first [=] after a property name as the definition sign. *)

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
  | SUFFIX_IMPL  (** [|->] (overlapping suffix implication) *)
  | SUFFIX_IMPL_NEXT  (** [|=>] (non-overlapping) *)
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

(** A token paired with its 1-based line and column. *)
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

(** Tokenize a whole string; the result always ends with {!EOF}. *)
val tokenize : string -> located list

val token_to_string : token -> string
