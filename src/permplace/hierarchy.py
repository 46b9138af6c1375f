"""Class-hierarchy index: subtype queries, dispatch, CHA target sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import CycleError
from .graph import closure, components
from .model import Invoke, LinkedProgram, parse_method_sig


@dataclass
class ClassHierarchy:
    program: LinkedProgram
    parents: dict = field(default_factory=dict)  # name -> direct supertypes
    children: dict = field(default_factory=dict)  # name -> direct subtypes
    _dispatch_cache: dict = field(default_factory=dict)
    _declarations: dict = field(default_factory=dict)  # invoke signature -> visible declaration
    _subtype_memo: dict = field(default_factory=dict)  # (sub, sup) -> bool

    # -- queries ------------------------------------------------------------

    def supertypes(self, name: str) -> set:
        """``name`` and every type it extends or implements, transitively;
        empty for an unknown name."""
        return closure([name] if name in self.parents else (), self.parents)

    def subtypes(self, name: str) -> set:
        """``name`` and every type that extends or implements it,
        transitively; empty for an unknown name."""
        return closure([name] if name in self.children else (), self.children)

    def is_subtype(self, sub: str, sup: str) -> bool:
        key = (sub, sup)
        if key not in self._subtype_memo:
            self._subtype_memo[key] = sup in self.supertypes(sub)
        return self._subtype_memo[key]

    def superclass_chain(self, name: str):
        """The class itself followed by its transitive superclasses."""
        decl = self.program.get_class(name)
        while decl is not None:
            yield decl
            decl = self.program.get_class(decl.super) if decl.super else None

    def dispatch(self, runtime_type: str, name: str, params) -> Optional[tuple]:
        """Nearest declaration walking up the superclass chain.

        Returns (class name, MethodDecl) or None. Interface declarations do
        not participate; they are abstract-only.
        """
        key = (runtime_type, name, tuple(params))
        if key in self._dispatch_cache:
            return self._dispatch_cache[key]
        result = None
        for decl in self.superclass_chain(runtime_type):
            m = decl.method_by_key(name, params)
            if m is not None and not m.abstract:
                result = (decl.name, m)
                break
        self._dispatch_cache[key] = result
        return result

    def cha_targets(self, invoke: Invoke):
        """CHA target signature set for a call site.

        static/special sites yield the single direct target. virtual and
        interface sites yield the dispatch result of every concrete subtype
        of the declared receiver type. Only bodied declarations are
        returned: stub-only targets are useless for reachability and for
        augmentation candidacy. An unknown receiver type has none.
        """
        cls, name, params = parse_method_sig(invoke.method)
        if invoke.kind in ("static", "special"):
            direct = self.resolve_declaration(invoke)
            if direct is None:
                return set()
            found = self.program.lookup_method(direct)
            if found is None or found[1].body is None:
                return set()
            return {direct}
        targets = set()
        for sub in sorted(self.subtypes(cls)):
            decl = self.program.get_class(sub)
            if decl is None or decl.kind != "class":
                continue
            hit = self.dispatch(sub, name, params)
            if hit is None:
                continue
            owner, m = hit
            if m.body is None:
                continue
            targets.add(m.sig(owner))
        return targets

    def resolve_declaration(self, invoke: Invoke) -> Optional[str]:
        """Canonical signature of the declaration visible at a call site.

        Walks upward (superclasses first, then interfaces) from the declared
        receiver type; this is the key used for spec matching, so it works
        even when points-to is empty. None when nothing is visible, an
        unknown receiver type included. The answer is cached per signature.
        """
        sig = invoke.method
        if sig not in self._declarations:
            cls, name, params = parse_method_sig(sig)
            self._declarations[sig] = self._visible_declaration(cls, name, params)
        return self._declarations[sig]

    def _visible_declaration(self, cls: str, name: str, params) -> Optional[str]:
        seen = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            decl = self.program.get_class(current)
            if decl is None:
                continue
            m = decl.method_by_key(name, params)
            if m is not None:
                return m.sig(current)
            if decl.super is not None:
                queue.append(decl.super)
            queue.extend(decl.interfaces)
        return None


def build_hierarchy(program: LinkedProgram) -> ClassHierarchy:
    """Index direct subtypes; raises CycleError on an inheritance cycle."""
    parents = {name: decl.parents for name, decl in program.classes.items()}
    children = {name: [] for name in parents}
    for name, ps in parents.items():
        for p in ps:
            children[p].append(name)
    # a type on a cycle has a parent and a child on it
    inner = sorted(name for name, ps in parents.items() if ps and children[name])
    for comp in components(inner, parents):
        if len(comp) > 1 or comp[0] in parents[comp[0]]:
            # every member has a parent inside the component: follow the
            # first one until a name repeats
            members, path, at = set(comp), [], {}
            name = min(comp)
            while name not in at:
                at[name] = len(path)
                path.append(name)
                name = next(p for p in parents[name] if p in members)
            raise CycleError(" -> ".join(path[at[name]:] + [name]))
    return ClassHierarchy(program=program, parents=parents, children=children)
