"""Dataflow graphs over basic blocks.

Each computational instruction of a block becomes a node; moves are
treated as wiring (Section III-A: "move instructions ... can be
converted into wiring when synthesized") and folded by copy/constant
propagation.  Value edges follow register def-use; a separate total
order is kept over memory and communication operations so candidates
and the scheduler never reorder them unsafely.

Input references are tuples:

* ``('node', id)`` — the value of another node in the block,
* ``('reg', r)`` — a register live into the block,
* ``('imm', v)`` — a compile-time constant.
"""

from repro.isa.instructions import Op, OpClass, base_op, op_class

# Operations placeable on some patch unit (SLTU/MULH-only menus apply
# at mapping time; SLTU never appears on a patch, so it is excluded).
MAPPABLE_OPS = frozenset(
    {
        Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLT, Op.SEQ,
        Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.MULH, Op.LW, Op.SW,
    }
)


class DFGNode:
    """One computational instruction inside a block."""

    __slots__ = (
        "id", "pos", "instr", "op", "base", "cls", "inputs", "out_reg",
        "mem_offset", "uses", "live_out", "spm_safe", "replicable",
    )

    def __init__(self, node_id, pos, instr, inputs, mem_offset=0,
                 spm_safe=False, replicable=False):
        self.id = node_id
        self.pos = pos                      # block-relative position
        self.instr = instr
        self.op = instr.op
        self.base = base_op(instr.op)
        self.cls = op_class(instr.op)
        self.inputs = tuple(inputs)
        self.out_reg = instr.rd if instr.op is not Op.SW else None
        self.mem_offset = mem_offset        # immediate offset of lw/sw
        self.uses = []                      # block positions reading the value
        self.live_out = False               # final def of out_reg in block
        self.spm_safe = spm_safe            # all observed addresses in SPM
        self.replicable = replicable        # load confined to a const region

    @property
    def is_mem(self):
        return self.cls is OpClass.T

    def value_pred_ids(self):
        return [ref[1] for ref in self.inputs if ref[0] == "node"]

    def __repr__(self):
        return f"DFGNode(#{self.id} {self.op.value} @{self.pos})"


_COMPUTE_CLASSES = (OpClass.A, OpClass.S, OpClass.M, OpClass.T)


class DFG:
    """Dataflow graph of one basic block."""

    def __init__(self, block, spm_only=frozenset(), live_out=None,
                 replicable=frozenset()):
        self.block = block
        self.replicable_pcs = frozenset(replicable)
        self.live_out_regs = (
            frozenset(range(1, 16)) if live_out is None else frozenset(live_out)
        )
        self.nodes = []
        self.node_at_pos = {}
        self.mem_order = []       # positions of mem/comm ops, program order
        self._consumers = {}      # node id -> [node ids]
        self._build(spm_only)
        self._index_reachability()

    # -- construction -----------------------------------------------------

    def _build(self, spm_only):
        defs = {}  # register -> ref

        def resolve(reg):
            if reg == 0:
                return ("imm", 0)
            return defs.get(reg, ("reg", reg))

        def new_node(pos, instr, inputs, mem_offset=0, spm_safe=False,
                     replicable=False):
            node = DFGNode(len(self.nodes), pos, instr, inputs, mem_offset,
                           spm_safe, replicable)
            self.nodes.append(node)
            self.node_at_pos[pos] = node
            for ref in inputs:
                if ref[0] == "node":
                    producer = self.nodes[ref[1]]
                    producer.uses.append(pos)
                    self._consumers.setdefault(ref[1], []).append(node.id)
            if node.out_reg is not None and node.out_reg != 0:
                defs[node.out_reg] = ("node", node.id)
            return node

        def record_plain_reads(pos, instr):
            for reg in instr.reads():
                ref = resolve(reg)
                if ref[0] == "node":
                    self.nodes[ref[1]].uses.append(pos)

        for pos, instr in enumerate(self.block.instructions):
            op = instr.op
            cls = op_class(op)
            program_index = self.block.start + pos
            if op is Op.MOV:
                record_plain_reads(pos, instr)
                if instr.rd != 0:
                    defs[instr.rd] = resolve(instr.ra)
            elif op is Op.MOVI:
                if instr.rd != 0:
                    defs[instr.rd] = ("imm", instr.imm)
            elif op is Op.LW:
                new_node(
                    pos, instr, [resolve(instr.ra)],
                    mem_offset=instr.imm,
                    spm_safe=program_index in spm_only,
                    replicable=program_index in self.replicable_pcs,
                )
                self.mem_order.append(pos)
            elif op is Op.SW:
                new_node(
                    pos, instr, [resolve(instr.rd), resolve(instr.ra)],
                    mem_offset=instr.imm,
                    spm_safe=program_index in spm_only,
                )
                self.mem_order.append(pos)
            elif cls in _COMPUTE_CLASSES:
                if instr.fmt == "ri":
                    inputs = [resolve(instr.ra), ("imm", instr.imm)]
                else:
                    inputs = [resolve(instr.ra), resolve(instr.rb)]
                new_node(pos, instr, inputs)
            else:
                # Control, comm, cix, nop: consume values, produce none
                # visible to patterns.  Comm ops join the memory order.
                record_plain_reads(pos, instr)
                if cls is OpClass.COMM or op is Op.CIX:
                    self.mem_order.append(pos)
                if op is Op.JAL:
                    defs[15] = ("reg", 15)  # opaque redefinition

        # Mark live-out nodes: last definition of a register that stays
        # live past the block (per the CFG liveness analysis).
        for reg, ref in defs.items():
            if ref[0] == "node" and reg in self.live_out_regs:
                self.nodes[ref[1]].live_out = True

    def _index_reachability(self):
        """Bitsets (bit ``i`` = node ``i``) built once per block.

        ``_desc[i]`` / ``_anc[i]`` are the nodes reachable from / reaching
        node ``i`` over value edges.  Producers always precede their
        consumers, so one reverse and one forward sweep close them.
        ``_load_bits`` / ``_store_bits`` mark the lw / sw nodes and
        ``_opaque_mem_positions`` the block positions of memory-order
        ops that are not nodes (comm and cix).
        """
        count = len(self.nodes)
        self._desc = [0] * count
        self._anc = [0] * count
        for node in reversed(self.nodes):
            desc = 0
            for consumer in self.consumers(node.id):
                desc |= (1 << consumer) | self._desc[consumer]
            self._desc[node.id] = desc
        for node in self.nodes:
            anc = 0
            for pred in node.value_pred_ids():
                anc |= (1 << pred) | self._anc[pred]
            self._anc[node.id] = anc
        self._load_bits = self._store_bits = self._opaque_mem_positions = 0
        for pos in self.mem_order:
            node = self.node_at_pos.get(pos)
            if node is None:
                self._opaque_mem_positions |= 1 << pos
            elif node.op is Op.LW:
                self._load_bits |= 1 << node.id
            else:
                self._store_bits |= 1 << node.id

    # -- queries ---------------------------------------------------------------

    def consumers(self, node_id):
        """Node ids (within the DFG) consuming ``node_id``'s value."""
        return self._consumers.get(node_id, [])

    def eligible_nodes(self):
        """Nodes a custom-instruction candidate may contain."""
        result = []
        for node in self.nodes:
            if node.base not in MAPPABLE_OPS:
                continue
            if node.is_mem and not node.spm_safe:
                continue
            result.append(node)
        return result

    def has_external_consumer(self, node, member_ids):
        """True if ``node``'s value escapes the candidate ``member_ids``."""
        if node.out_reg is None:
            return False
        if node.live_out:
            return True
        member_positions = {self.nodes[m].pos for m in member_ids}
        return any(pos not in member_positions for pos in node.uses)

    def external_inputs(self, member_ids):
        """Distinct outside refs feeding the candidate (mapping view).

        Non-zero memory offsets count as immediate inputs because the
        patch must receive them as operands to form addresses.
        """
        members = set(member_ids)
        refs = []
        seen = set()

        def add(ref):
            if ref not in seen:
                seen.add(ref)
                refs.append(ref)

        for node_id in sorted(members):
            node = self.nodes[node_id]
            for ref in node.inputs:
                if ref[0] == "node" and ref[1] in members:
                    continue
                add(ref)
            if node.is_mem and node.mem_offset != 0:
                add(("imm", node.mem_offset))
        return refs

    def outputs(self, member_ids):
        """Node ids whose values must be written to the register file."""
        return [
            node_id for node_id in sorted(set(member_ids))
            if self.has_external_consumer(self.nodes[node_id], member_ids)
        ]

    def reaches(self, src, dst):
        """True if a value path leads from node ``src`` to node ``dst``."""
        return bool(self._desc[src] >> dst & 1)

    def is_convex(self, member_ids):
        """No outside path from a member back into the candidate.

        Checked over value edges plus the memory/comm order (a candidate
        may not straddle a non-member memory or communication op that
        both depends on it and feeds it).  With the reachability bitsets
        a value path leaves and re-enters the candidate iff some
        non-member is both a descendant and an ancestor of it.
        """
        mask = desc = anc = 0
        for node_id in member_ids:
            mask |= 1 << node_id
            desc |= self._desc[node_id]
            anc |= self._anc[node_id]
        if desc & anc & ~mask:
            return False
        return not self._mem_span_violated(mask)

    def _mem_span_violated(self, mask):
        """A hazardous non-member mem/comm op inside the memory span.

        ``mask`` is the candidate's node-id bitset.  Outside *loads*
        commute with member loads, so they only violate the span when
        the candidate contains a store; outside stores and comm ops
        always do.  Node ids follow block positions, so the node ids
        strictly between the first and last member memory op are
        exactly the nodes inside the span.
        """
        member_mem = mask & (self._load_bits | self._store_bits)
        if not member_mem & (member_mem - 1):
            return False  # fewer than two memory members
        lo = (member_mem & -member_mem).bit_length() - 1
        hi = member_mem.bit_length() - 1
        inside = ((1 << hi) - 1) & ~((2 << lo) - 1) & ~mask
        if inside & self._store_bits:
            return True
        if mask & self._store_bits and inside & self._load_bits:
            return True
        lo_pos, hi_pos = self.nodes[lo].pos, self.nodes[hi].pos
        span = ((1 << hi_pos) - 1) & ~((2 << lo_pos) - 1)
        return bool(span & self._opaque_mem_positions)
