open Tabv_psl

(** Def. III.2: mapping an RTL clock context to a TLM transaction
    context.

    {ul
    {- the basic clock context [true] and the pure edge contexts
       [@clk], [@clk_pos], [@clk_neg] map to the basic transaction
       context [T_b] (evaluate at the end of every transaction);}
    {- a gated edge context [clk_edge && var_expr] maps to
       [T_b && var_expr].}}

    [run c] maps clock contexts so and leaves transaction contexts
    unchanged. *)
val run : Context.t -> Context.t
