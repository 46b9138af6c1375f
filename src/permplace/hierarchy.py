"""Class-hierarchy index: subtype queries, dispatch, CHA target sets."""

from __future__ import annotations

from typing import Optional

from .errors import CycleError
from .graph import closure, components
from .model import Invoke, LinkedProgram, parse_method_sig


class ClassHierarchy:
    def __init__(self, program: LinkedProgram, parents: dict, children: dict):
        self.program = program
        self.parents = parents  # name -> direct supertypes
        self.children = children  # name -> direct subtypes
        self._dispatch_cache = {}  # (runtime type, invoke sig) -> target
        self._declarations = {}  # invoke signature -> visible declaration
        self._subtype_memo = {}  # (sub, sup) -> bool

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

    def dispatch(self, runtime_type: str, sig: str) -> Optional[str]:
        """Signature of the method that the invoke signature ``sig`` runs on
        a receiver of ``runtime_type``: the nearest non-abstract declaration
        of its name and parameters up the superclass chain, or None. Only a
        class is a runtime type, as CHA has it: an interface or unknown
        name dispatches nowhere. Cached per pair."""
        key = (runtime_type, sig)
        if key not in self._dispatch_cache:
            _, name, params = parse_method_sig(sig)
            target = None
            runtime = self.program.get_class(runtime_type)
            if runtime is not None and runtime.kind == "class":
                for decl in self.superclass_chain(runtime_type):
                    m = decl.method_by_key(name, params)
                    if m is not None and not m.abstract:
                        target = m.sig(decl.name)
                        break
            self._dispatch_cache[key] = target
        return self._dispatch_cache[key]

    def cha_targets(self, invoke: Invoke):
        """CHA target signature set for a call site.

        static/special sites yield the single direct target. virtual and
        interface sites yield the dispatch result of every concrete subtype
        of the declared receiver type. Only bodied declarations are
        returned: stub-only targets are useless for reachability and for
        augmentation candidacy. An unknown receiver type has none.
        """
        if invoke.kind in ("static", "special"):
            direct = self.resolve_declaration(invoke)
            if direct is None or self.program.body_of(direct) is None:
                return set()
            return {direct}
        targets = set()
        for sub in self.subtypes(parse_method_sig(invoke.method)[0]):
            decl = self.program.get_class(sub)
            if decl is None or decl.kind != "class":
                continue
            target = self.dispatch(sub, invoke.method)
            if target is not None and self.program.body_of(target) is not None:
                targets.add(target)
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
