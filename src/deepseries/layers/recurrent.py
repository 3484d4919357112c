"""Recurrent layers: LSTM, GRU, and a bidirectional wrapper.

Input is ``[batch, time, channels]``.  With ``return_sequences`` the output is
``[batch, time, units]``, otherwise the final hidden state ``[batch, units]``.
Initial states are zero.  Kernels use the uniform(+-1/sqrt(units)) draw; the
LSTM forget-gate bias starts at one.

Each cell has one step loop, for training and inference, and it runs
gate-major: the states are ``[units, batch]``, and a step's gate
pre-activations come from one product
``[gates, channels + 1 + units] @ [channels + 1 + units, batch]`` of the
weights with ``x_t``, a row of ones (the bias) and ``h_{t-1}``.  Each gate
and state is then a contiguous block of rows, so every elementwise op runs
as one flat loop over it.  Given a backward cache, the loop writes every
step's blocks into ``[time, rows, batch]`` arrays, the cache's own when the
previous training forward left ones of the same shape in it; without one it
reuses a single block.  The backward walks the same layout: per step, one
product ``w.T @ dz`` gives ``dx_t`` and ``dh_{t-1}``, and ``dz @ stack[t].T``
adds into one ``[gates, channels + 1 + units]`` weight gradient, which is
scattered back to ``wx``, ``b`` and ``wh`` once.  Outputs and input
gradients are transposed back once, at the end, into new arrays.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .base import Layer, recurrent_uniform
from .core import Concat, ReverseTime
from .subgraph import NodeSpec, Subgraph


class _Recurrent(Layer):
    def __init__(self, units: int, return_sequences: bool = False):
        super().__init__()
        if units < 1:
            raise ParameterError("units must be >= 1")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)

    def out_shape(self, in_shapes):
        t, _ = self._series(in_shapes)
        return (t, self.units) if self.return_sequences else (self.units,)

    def _weights(self):
        """``wx``, ``b`` and ``wh`` stacked, ``[channels + 1 + units, gates]``,
        with the gate columns in the order ``_order`` fixed at build."""
        p = self.params
        return np.concatenate((p["wx"], p["b"][None], p["wh"]))[:, self._order]

    def _step_terms(self, x, stack):
        """Gate-major weights ``[gates, channels + 1 + units]``, with ``stack``
        filled for the step loop.

        Transposes ``_weights`` and halves its leading ``_n_sigmoid`` rows,
        the sigmoid gates, in place (``sigmoid(z) = 0.5 + 0.5 * tanh(z / 2)``
        and halving is exact, so one ``tanh`` of the halved pre-activations
        serves every gate).  The stack is ``[time + 1, channels + 1 + units,
        batch]``, and what it held is overwritten: block ``t`` holds ``x_t``,
        a row of ones and ``h_{t-1}`` (zero in block 0), so one product
        ``w @ stack[t]`` gives the pre-activations of step ``t``, bias
        included.  (A GRU's candidate reads ``r * h``, so it takes only the
        input rows.)  Step ``t`` writes ``h_t`` into the state rows of block
        ``t + 1``; the input rows of the last block are never read.  Derived
        from the parameters on every call, so parameter updates apply at once.
        """
        t, ch = x.shape[1:]
        w = self._weights().T
        w[: self._n_sigmoid] *= 0.5
        stack[:t, :ch] = x.transpose(1, 2, 0)
        stack[:, ch] = 1.0
        stack[0, ch + 1 :] = 0.0
        return np.ascontiguousarray(w)

    def _grads(self, dxh, dw):
        """The input gradient ``[batch, time, channels]`` from the gate-major
        ``dxh`` ``[time, channels + 1 + units, batch]``, and the parameter
        gradients from ``dw`` ``[gates, channels + 1 + units]``, scattered
        back through ``_order`` to ``wx``, ``b`` and ``wh``.  ``dx`` is a copy
        (``np.ascontiguousarray`` would return a view of ``dxh`` at batch 1
        with one step)."""
        ch = dw.shape[1] - 1 - self.units
        g = np.empty(dw.shape[::-1])
        g[:, self._order] = dw.T
        dx = dxh[:, :ch].transpose(2, 0, 1).copy()
        return dx, {"wx": g[:ch], "b": g[ch], "wh": g[ch + 1 :]}


class LSTM(_Recurrent):
    """Long short-term memory.

    Per step, with gate blocks ``i/f/g/o`` packed in that order:

        z   = x_t @ wx + h_{t-1} @ wh + b
        i,f,o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o);  g = tanh(z_g)
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)

    The stored packing stays ``i/f/g/o``.  Each call reorders a copy to
    ``i/f/o/g`` and halves its ``i f o`` rows, so one ``tanh`` covers all
    four gates.  The cache holds the stack, every step's activated gates,
    the cells ``c_0 .. c_t`` and ``tanh(c_t)``.
    """

    kind = "lstm"

    def _build(self, in_shapes, rng):
        ch, u = in_shapes[0][1], self.units
        self.params["wx"] = recurrent_uniform(rng, (ch, 4 * u), u)
        self.params["wh"] = recurrent_uniform(rng, (u, 4 * u), u)
        b = np.zeros(4 * u)
        b[u : 2 * u] = 1.0  # forget-gate bias
        self.params["b"] = b
        self._order = np.arange(4 * u).reshape(4, u)[[0, 1, 3, 2]].ravel()  # i f o g
        self._n_sigmoid = 3 * u

    def forward(self, x, train=False, cache=None):
        b, t, ch = x.shape
        u = self.units
        stack = self._buffer(cache, "stack", (t + 1, ch + 1 + u, b))
        w = self._step_terms(x, stack)
        hs = stack[:, ch + 1 :]
        # A backward reads every step's blocks; inference reuses one set and
        # alternates two cell blocks (writing c_t over c_{t-1} would cost
        # numpy an overlap copy per step).
        kept = t if cache is not None else 1
        zs = self._buffer(cache, "zs", (kept, 4 * u, b))  # activated gates, i f o g
        tcs = self._buffer(cache, "tcs", (kept, u, b))  # tanh(c_t)
        cs = self._buffer(cache, "cs", (kept + 1, u, b))  # c_0, then c_t
        cs[0] = 0.0
        blocks = [(z, z[: 3 * u], *z.reshape(4, u, b), tc) for z, tc in zip(zs, tcs)]
        for ti in range(t):
            z, sig, i, f, o, g, tc = blocks[ti % kept]
            c_prev, c = cs[ti % (kept + 1)], cs[(ti + 1) % (kept + 1)]
            np.matmul(w, stack[ti], out=z)
            np.tanh(z, out=z)
            sig *= 0.5  # i f o: 0.5 + 0.5 * tanh(z / 2)
            sig += 0.5
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=tc)
            c += tc
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=hs[ti + 1])
        return _batch_major(hs, self.return_sequences)

    def backward(self, upstream, cache):
        stack, zs, cs, tcs = cache["stack"], cache["zs"], cache["cs"], cache["tcs"]
        t, _, b = zs.shape
        u = self.units
        k = stack.shape[1]
        wt = self._weights()
        seq = self.return_sequences
        dw = np.zeros((4 * u, k))
        step = np.empty_like(dw)
        dxh = np.empty((t, k, b))  # per step: dx_t, the bias row, dh_{t-1}
        dz = np.empty((4 * u, b))
        di, df, do, dg = dz.reshape(4, u, b)
        gates = zs.reshape(t, 4, u, b)
        dc = np.zeros((u, b))
        dh = np.zeros((u, b)) if seq else upstream.T  # only the last h is output
        for ti in range(t - 1, -1, -1):
            i, f, o, g = gates[ti]
            tc = tcs[ti]
            if seq:
                dh += upstream[:, ti].T
            np.multiply(dh, tc, out=do)
            dc += dh * o * (1.0 - tc * tc)
            np.multiply(dc, g, out=di)
            np.multiply(dc, cs[ti], out=df)
            np.multiply(dc, i, out=dg)
            dc *= f
            a = zs[ti, : 3 * u]
            dz[: 3 * u] *= a * (1.0 - a)  # i f o
            dg *= 1.0 - g * g
            np.matmul(wt, dz, out=dxh[ti])
            np.matmul(dz, stack[ti].T, out=step)
            dw += step
            dh = dxh[ti, k - u :]
        return self._grads(dxh, dw)


class GRU(_Recurrent):
    """Gated recurrent unit.

    Gate blocks ``z/r/n`` packed in that order; the reset gate scales the
    previous state before the candidate's recurrent product:

        z_t = sigmoid(x_t @ wx_z + h_{t-1} @ wh_z + b_z)
        r_t = sigmoid(x_t @ wx_r + h_{t-1} @ wh_r + b_r)
        n_t = tanh(x_t @ wx_n + (r_t * h_{t-1}) @ wh_n + b_n)
        h_t = (1 - z_t) * h_{t-1} + z_t * n_t

    The stored packing stays ``z/r/n``.  Each call halves a copy of the
    ``z r`` rows so one ``tanh`` covers both gates.  The cache holds the
    stack and every step's activated ``z r`` block, ``r * h_{t-1}`` and
    candidate ``n_t``.
    """

    kind = "gru"

    def _build(self, in_shapes, rng):
        ch, u = in_shapes[0][1], self.units
        self.params["wx"] = recurrent_uniform(rng, (ch, 3 * u), u)
        self.params["wh"] = recurrent_uniform(rng, (u, 3 * u), u)
        self.params["b"] = np.zeros(3 * u)
        self._order = slice(None)
        self._n_sigmoid = 2 * u

    def forward(self, x, train=False, cache=None):
        b, t, ch = x.shape
        u = self.units
        shape = (t + 1, ch + 1 + u, b)
        if cache is None:
            # The stack and the candidates in one allocation.  glibc trims
            # the heap top past twice the largest block it has freed; apart,
            # that block was a batch-256 ZhangJin predict's 6.2 MB stack, so
            # the BiGRU's 12 MiB transient went back to the OS and was
            # faulted in again on every call (3800 minor faults per call in
            # a loop of predicts, against none).
            n = math.prod(shape)
            block = np.empty(n + t * u * b)
            stack, ns = block[:n].reshape(shape), block[n:].reshape(t, u, b)
        else:
            stack, ns = self._buffer(cache, "stack", shape), self._buffer(cache, "ns", (t, u, b))
        w = self._step_terms(x, stack)
        w_zr, w_nh = w[: 2 * u], w[2 * u :, ch + 1 :]
        # The candidate's recurrent product reads r * h, not the stack's h,
        # so its input term, bias included, is one product over all steps;
        # one per step would cost each batch-1 step another call.  Each step
        # adds its recurrent term in place, so this holds every n_t.
        np.matmul(w[2 * u :, : ch + 1], stack[:t, : ch + 1], out=ns)
        hs = stack[:, ch + 1 :]
        kept = t if cache is not None else 1  # a backward reads every step's blocks
        zrs = self._buffer(cache, "zrs", (kept, 2 * u, b))  # activated z r
        rhs = self._buffer(cache, "rhs", (kept, u, b))  # r * h_{t-1}
        blocks = [(zr, zr[:u], zr[u:], rh) for zr, rh in zip(zrs, rhs)]
        for ti in range(t):
            zr, z, r, rh = blocks[ti % kept]
            h, cand, hn = hs[ti], ns[ti], hs[ti + 1]
            np.matmul(w_zr, stack[ti], out=zr)
            np.tanh(zr, out=zr)
            zr *= 0.5  # z r: 0.5 + 0.5 * tanh(z / 2)
            zr += 0.5
            np.multiply(r, h, out=rh)
            cand += w_nh @ rh
            np.tanh(cand, out=cand)
            np.subtract(cand, h, out=hn)  # h + z * (n - h): (1 - z) * h + z * n in one op fewer
            hn *= z
            hn += h
        return _batch_major(hs, self.return_sequences)

    def backward(self, upstream, cache):
        stack, zrs, rhs, ns = cache["stack"], cache["zrs"], cache["rhs"], cache["ns"]
        t, u, b = ns.shape
        k = stack.shape[1]
        wt = self._weights()
        # n reads r * h, not h: its recurrent term goes back through drh, so
        # the product that gives dx_t and dh_{t-1} leaves it out.
        w_nh = wt[k - u :, 2 * u :].copy()
        wt[k - u :, 2 * u :] = 0.0
        seq = self.return_sequences
        dw = np.zeros((3 * u, k))
        step = np.empty_like(dw)
        dxh = np.empty((t, k, b))  # per step: dx_t, the bias row, dh_{t-1}
        dz = np.empty((3 * u, b))
        dzz, dzr, dzn = dz.reshape(3, u, b)
        gates = zrs.reshape(t, 2, u, b)
        dh = np.zeros((u, b)) if seq else upstream.T  # only the last h is output
        for ti in range(t - 1, -1, -1):
            h, n, rh = stack[ti, k - u :], ns[ti], rhs[ti]
            z, r = gates[ti]
            if seq:
                dh += upstream[:, ti].T
            np.subtract(n, h, out=dzz)
            dzz *= dh
            np.multiply(dh, z, out=dzn)
            dzn *= 1.0 - n * n
            drh = w_nh @ dzn
            np.multiply(drh, h, out=dzr)
            a = zrs[ti]
            dz[: 2 * u] *= a * (1.0 - a)  # z r
            np.matmul(wt, dz, out=dxh[ti])
            np.matmul(dz, stack[ti].T, out=step)
            np.matmul(dzn, rh.T, out=step[2 * u :, k - u :])  # n's recurrent term reads r * h
            dw += step
            dh_prev = dxh[ti, k - u :]
            dh_prev += dh * (1.0 - z)
            dh_prev += drh * r
            dh = dh_prev
        return self._grads(dxh, dw)


def _batch_major(hs, return_sequences):
    """The layer output from the gate-major states ``[time + 1, units, batch]``
    (``h_0`` first): ``[batch, time, units]`` or the final ``[batch, units]``,
    as a C-contiguous copy (at batch 1 ``np.ascontiguousarray`` would return a
    view of the states, which the next training forward overwrites)."""
    return (hs[1:].transpose(2, 0, 1) if return_sequences else hs[-1].T).copy()


class Bidirectional(Subgraph):
    """Run a recurrent layer over both time directions and concatenate channels.

    The two directions hold independent parameters (``fwd_``/``bwd_``
    prefixes).  The backward direction consumes the reversed sequence; its
    per-step outputs are re-reversed before concatenation.
    """

    def __init__(self, inner: _Recurrent):
        if not isinstance(inner, _Recurrent):
            raise ParameterError("bidirectional wraps an LSTM or GRU layer")
        nodes = [NodeSpec("fwd", inner, ["x"]),
                 NodeSpec("rev", ReverseTime(), ["x"]),
                 NodeSpec("bwd", type(inner)(inner.units, inner.return_sequences), ["rev"])]
        if inner.return_sequences:
            nodes.append(NodeSpec("bwd_rev", ReverseTime(), ["bwd"]))
        nodes.append(NodeSpec("cat", Concat(2), ["fwd", nodes[-1].name]))
        super().__init__(nodes)
        self.kind = "bilstm" if isinstance(inner, LSTM) else "bigru"
