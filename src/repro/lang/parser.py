"""Recursive-descent parser for MiniC.

Grammar (EBNF-ish)::

    module     := (global | const | func)*
    global     := 'global' IDENT ('[' NUMBER ']')? ';'
    const      := 'const' IDENT '=' NUMBER ';'
    func       := 'fn' IDENT '(' [IDENT (',' IDENT)*] ')' block
    block      := '{' stmt* '}'
    stmt       := 'var' IDENT ['=' expr] ';'
                | 'if' '(' expr ')' block ['else' (block | if-stmt)]
                | 'while' '(' expr ')' block
                | 'for' '(' [simple] ';' [expr] ';' [simple] ')' block
                | 'break' ';' | 'continue' ';'
                | 'return' [expr] ';'
                | simple ';'
    simple     := lvalue '=' expr | expr          (assignment or call)
    expr       := precedence climb over:  ||  &&  |  ^  &  == !=
                  < <= > >=  << >>  + -  * / %  unary(- !)  postfix([ ])
    primary    := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'

Only statement-position calls and assignments are allowed as ``simple``
statements; anything else at statement position is rejected early, which
catches ``==`` vs ``=`` typos in workloads.
"""

from __future__ import annotations

from dataclasses import fields

from . import ast_nodes as ast
from .errors import CompileError
from .lexer import Token, TokKind, tokenize

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


#: deepest nesting the front end accepts, counted both as parser
#: recursion (parentheses, unary operators, blocks) and as syntax-tree
#: depth (operator chains, nested statements).  The parser and the code
#: generator recurse a few Python frames per level, so the bound keeps
#: any source — a service job's included — well inside Python's
#: recursion limit and answers it with a CompileError instead.
MAX_NESTING = 128


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._nesting = 0

    def _enter(self) -> None:
        """One more level of recursive descent; bounded by MAX_NESTING.
        (Callers decrement on return; an error abandons the parser.)"""
        self._nesting += 1
        if self._nesting > MAX_NESTING:
            raise CompileError(
                f"nesting deeper than {MAX_NESTING} levels", self.cur.line, self.cur.col
            )

    # -- token helpers ------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in (TokKind.OP, TokKind.KEYWORD)

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise CompileError(
                f"expected {text!r}, got {self.cur.text or 'EOF'!r}", self.cur.line, self.cur.col
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.cur.kind is not TokKind.IDENT:
            raise CompileError(
                f"expected identifier, got {self.cur.text or 'EOF'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def expect_number(self) -> Token:
        neg = self.accept("-")
        if self.cur.kind is not TokKind.NUMBER:
            raise CompileError(
                f"expected number, got {self.cur.text or 'EOF'!r}", self.cur.line, self.cur.col
            )
        tok = self.advance()
        if neg:
            return Token(tok.kind, "-" + tok.text, -tok.value, tok.line, tok.col)
        return tok

    # -- top level -------------------------------------------------------
    def parse_module(self) -> ast.Module:
        module = ast.Module(line=1)
        while self.cur.kind is not TokKind.EOF:
            if self.check("global"):
                module.globals.append(self.parse_global())
            elif self.check("const"):
                module.consts.append(self.parse_const())
            elif self.check("fn"):
                module.functions.append(self.parse_func())
            else:
                raise CompileError(
                    f"expected 'global', 'const' or 'fn', got {self.cur.text!r}",
                    self.cur.line,
                    self.cur.col,
                )
        return module

    def parse_global(self) -> ast.GlobalDecl:
        line = self.expect("global").line
        name = self.expect_ident().text
        size = 1
        if self.accept("["):
            size = self.expect_number().value
            if size < 1:
                raise CompileError(f"global array {name!r} must have positive size", line)
            self.expect("]")
        self.expect(";")
        return ast.GlobalDecl(line=line, name=name, size=size)

    def parse_const(self) -> ast.ConstDecl:
        line = self.expect("const").line
        name = self.expect_ident().text
        self.expect("=")
        value = self.expect_number().value
        self.expect(";")
        return ast.ConstDecl(line=line, name=name, value=value)

    def parse_func(self) -> ast.FuncDecl:
        line = self.expect("fn").line
        name = self.expect_ident().text
        self.expect("(")
        params: list[str] = []
        if not self.check(")"):
            params.append(self.expect_ident().text)
            while self.accept(","):
                params.append(self.expect_ident().text)
        self.expect(")")
        body = self.parse_block()
        return ast.FuncDecl(line=line, name=name, params=params, body=body)

    # -- statements ----------------------------------------------------------
    def parse_block(self) -> list:
        self._enter()
        self.expect("{")
        stmts = []
        while not self.check("}"):
            if self.cur.kind is TokKind.EOF:
                raise CompileError("unterminated block", self.cur.line, self.cur.col)
            stmts.append(self.parse_stmt())
        self.expect("}")
        self._nesting -= 1
        return stmts

    def parse_stmt(self) -> ast.Stmt:
        tok = self.cur
        if self.check("var"):
            self.advance()
            name = self.expect_ident().text
            init = None
            if self.accept("="):
                init = self.parse_expr()
            self.expect(";")
            return ast.VarDecl(line=tok.line, name=name, init=init)
        if self.check("if"):
            return self.parse_if()
        if self.check("while"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return ast.While(line=tok.line, cond=cond, body=body)
        if self.check("for"):
            self.advance()
            self.expect("(")
            init = None if self.check(";") else self.parse_for_init()
            self.expect(";")
            cond = None if self.check(";") else self.parse_expr()
            self.expect(";")
            step = None if self.check(")") else self.parse_simple()
            self.expect(")")
            body = self.parse_block()
            return ast.For(line=tok.line, init=init, cond=cond, step=step, body=body)
        if self.check("break"):
            self.advance()
            self.expect(";")
            return ast.Break(line=tok.line)
        if self.check("continue"):
            self.advance()
            self.expect(";")
            return ast.Continue(line=tok.line)
        if self.check("return"):
            self.advance()
            value = None if self.check(";") else self.parse_expr()
            self.expect(";")
            return ast.Return(line=tok.line, value=value)
        stmt = self.parse_simple()
        self.expect(";")
        return stmt

    def parse_if(self) -> ast.If:
        self._enter()
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        otherwise: list = []
        if self.accept("else"):
            if self.check("if"):
                otherwise = [self.parse_if()]
            else:
                otherwise = self.parse_block()
        self._nesting -= 1
        return ast.If(line=tok.line, cond=cond, then=then, otherwise=otherwise)

    def parse_for_init(self) -> ast.Stmt:
        """The init clause of a ``for``: either ``var x = e`` or a simple
        statement (no trailing semicolon either way)."""
        tok = self.cur
        if self.accept("var"):
            name = self.expect_ident().text
            self.expect("=")
            return ast.VarDecl(line=tok.line, name=name, init=self.parse_expr())
        return self.parse_simple()

    def parse_simple(self) -> ast.Stmt:
        """Assignment or expression statement (calls only)."""
        tok = self.cur
        expr = self.parse_expr()
        if self.accept("="):
            if not isinstance(expr, (ast.Name, ast.Index)):
                raise CompileError("invalid assignment target", tok.line, tok.col)
            value = self.parse_expr()
            return ast.Assign(line=tok.line, target=expr, value=value)
        if not isinstance(expr, ast.Call):
            raise CompileError(
                "only calls and assignments may be statements", tok.line, tok.col
            )
        return ast.ExprStmt(line=tok.line, expr=expr)

    # -- expressions ------------------------------------------------------------
    def parse_expr(self, min_prec: int = 1) -> ast.Expr:
        self._enter()
        left = self.parse_unary()
        while True:
            op = self.cur.text
            prec = _PRECEDENCE.get(op) if self.cur.kind is TokKind.OP else None
            if prec is None or prec < min_prec:
                self._nesting -= 1
                return left
            line = self.advance().line
            right = self.parse_expr(prec + 1)
            left = ast.Binary(line=line, op=op, left=left, right=right)

    def parse_unary(self) -> ast.Expr:
        tok = self.cur
        if self.check("-") or self.check("!"):
            self._enter()
            self.advance()
            operand = self.parse_unary()
            self._nesting -= 1
            return ast.Unary(line=tok.line, op=tok.text, operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while self.check("["):
            line = self.advance().line
            index = self.parse_expr()
            self.expect("]")
            expr = ast.Index(line=line, base=expr, index=index)
        return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.cur
        if tok.kind is TokKind.NUMBER:
            self.advance()
            return ast.Num(line=tok.line, value=tok.value)
        if tok.kind is TokKind.IDENT:
            self.advance()
            if self.check("("):
                self.advance()
                args = []
                if not self.check(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return ast.Call(line=tok.line, name=tok.text, args=args)
            return ast.Name(line=tok.line, ident=tok.text)
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise CompileError(f"unexpected token {tok.text or 'EOF'!r}", tok.line, tok.col)


def _check_nesting(module: ast.Module) -> None:
    """Reject syntax trees deeper than :data:`MAX_NESTING` (a long
    operator chain parses in a loop but still builds a deep tree).
    Walks with an explicit stack, so the check itself cannot recurse."""
    stack: list[tuple[ast.Node, int]] = [(module, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise CompileError(f"nesting deeper than {MAX_NESTING} levels", node.line)
        for f in fields(node):
            value = getattr(node, f.name)
            children = value if isinstance(value, list) else (value,)
            for child in children:
                if isinstance(child, ast.Node):
                    stack.append((child, depth + 1))


def parse(source: str) -> ast.Module:
    """Parse MiniC source into a :class:`repro.lang.ast_nodes.Module`."""
    module = Parser(tokenize(source)).parse_module()
    _check_nesting(module)
    return module
