"""Recurrent layers: LSTM, GRU, and a bidirectional wrapper.

Input is ``[batch, time, channels]``.  With ``return_sequences`` the output is
``[batch, time, units]``, otherwise the final hidden state ``[batch, units]``.
Initial states are zero.  Kernels use the uniform(+-1/sqrt(units)) draw; the
LSTM forget-gate bias starts at one.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .base import Layer, recurrent_uniform, sigmoid
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

    def _inference_terms(self, x):
        """``wh`` and the input term ``x @ wx + b`` in the inference gate layout.

        Stacks ``wx``, ``wh`` and ``b``, gathers the columns into the order
        ``_order`` fixed at build, and halves the leading ``_n_sigmoid``
        columns, the sigmoid gates, in place:
        ``sigmoid(z) = 0.5 + 0.5 * tanh(z / 2)`` and halving is exact, so one
        ``tanh`` of the halved pre-activations serves every gate.  The input
        term is laid out ``[time, batch, gates]``, so each step reads a
        contiguous block.  Derived from the parameters on every call, so
        parameter updates apply at once.
        """
        b, t, ch = x.shape
        p = self.params
        w = np.concatenate((p["wx"], p["wh"], p["b"][None]))[:, self._order]
        w[:, : self._n_sigmoid] *= 0.5
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t * b, ch)
        xw = x_tm @ w[:ch]
        xw += w[-1]
        return w[ch:-1], xw.reshape(t, b, w.shape[1])


class LSTM(_Recurrent):
    """Long short-term memory.

    Per step, with gate blocks ``i/f/g/o`` packed in that order:

        z   = x_t @ wx + h_{t-1} @ wh + b
        i,f,o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o);  g = tanh(z_g)
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)

    The stored packing stays ``i/f/g/o``.  Without a cache (inference) each
    call reorders a copy to ``i/f/o/g`` and halves its ``i f o`` columns, so
    one ``tanh`` covers all four gates.
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
        if cache is None:
            return self._infer(x)
        b, t, _ = x.shape
        u = self.units
        wx, wh, bias = self.params["wx"], self.params["wh"], self.params["b"]
        h = np.zeros((b, u))
        c = np.zeros((b, u))
        hs = np.empty((b, t, u))
        steps = []
        xw = x @ wx + bias  # input contribution for every step at once
        for ti in range(t):
            z = xw[:, ti] + h @ wh
            i = sigmoid(z[:, :u])
            f = sigmoid(z[:, u : 2 * u])
            g = np.tanh(z[:, 2 * u : 3 * u])
            o = sigmoid(z[:, 3 * u :])
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h_prev = h
            h = o * tc
            hs[:, ti] = h
            steps.append((h_prev, c_prev, i, f, g, o, tc))
        cache.update(x=x, steps=steps)
        return hs if self.return_sequences else h

    def _infer(self, x):
        b, t, _ = x.shape
        u = self.units
        wh, xw = self._inference_terms(x)
        h = np.zeros((b, u))
        c = np.zeros((b, u))
        hs = np.empty((b, t, u)) if self.return_sequences else None
        z = np.empty((b, 4 * u))
        sig = z[:, : 3 * u]
        i, f, o, g = (z[:, k * u : (k + 1) * u] for k in range(4))
        for ti in range(t):
            np.matmul(h, wh, out=z)
            z += xw[ti]
            np.tanh(z, out=z)
            sig *= 0.5  # i f o: 0.5 + 0.5 * tanh(z / 2)
            sig += 0.5
            c = f * c + i * g
            h = o * np.tanh(c)
            if hs is not None:
                hs[:, ti] = h
        return h if hs is None else hs

    def backward(self, upstream, cache):
        x, steps = cache["x"], cache["steps"]
        b, t, ch = x.shape
        u = self.units
        wx, wh = self.params["wx"], self.params["wh"]
        seq = self.return_sequences
        dwx = np.zeros_like(wx)
        dwh = np.zeros_like(wh)
        db = np.zeros(4 * u)
        dx = np.empty_like(x)
        dh_next = np.zeros((b, u)) if seq else upstream  # only the last h is output
        dc_next = np.zeros((b, u))
        for ti in range(t - 1, -1, -1):
            h_prev, c_prev, i, f, g, o, tc = steps[ti]
            dh = dh_next + upstream[:, ti] if seq else dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dwx += x[:, ti].T @ dz
            dwh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, ti] = dz @ wx.T
            dh_next = dz @ wh.T
        return dx, {"wx": dwx, "wh": dwh, "b": db}


class GRU(_Recurrent):
    """Gated recurrent unit.

    Gate blocks ``z/r/n`` packed in that order; the reset gate scales the
    previous state before the candidate's recurrent product:

        z_t = sigmoid(x_t @ wx_z + h_{t-1} @ wh_z + b_z)
        r_t = sigmoid(x_t @ wx_r + h_{t-1} @ wh_r + b_r)
        n_t = tanh(x_t @ wx_n + (r_t * h_{t-1}) @ wh_n + b_n)
        h_t = (1 - z_t) * h_{t-1} + z_t * n_t

    The stored packing stays ``z/r/n``.  Without a cache (inference) each call
    halves a copy of the ``z r`` columns so one ``tanh`` covers both gates.
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
        if cache is None:
            return self._infer(x)
        b, t, _ = x.shape
        u = self.units
        wx, wh, bias = self.params["wx"], self.params["wh"], self.params["b"]
        h = np.zeros((b, u))
        hs = np.empty((b, t, u))
        steps = []
        xw = x @ wx + bias
        for ti in range(t):
            zr = xw[:, ti, : 2 * u] + h @ wh[:, : 2 * u]
            z = sigmoid(zr[:, :u])
            r = sigmoid(zr[:, u:])
            rh = r * h
            n = np.tanh(xw[:, ti, 2 * u :] + rh @ wh[:, 2 * u :])
            h_prev = h
            h = (1.0 - z) * h_prev + z * n
            hs[:, ti] = h
            steps.append((h_prev, z, r, n, rh))
        cache.update(x=x, steps=steps)
        return hs if self.return_sequences else h

    def _infer(self, x):
        b, t, _ = x.shape
        u = self.units
        wh, xw = self._inference_terms(x)
        wh_zr, wh_n = wh[:, : 2 * u], wh[:, 2 * u :]
        h = np.zeros((b, u))
        hs = np.empty((b, t, u)) if self.return_sequences else None
        zr = np.empty((b, 2 * u))
        z, r = zr[:, :u], zr[:, u:]
        for ti in range(t):
            np.matmul(h, wh_zr, out=zr)
            zr += xw[ti, :, : 2 * u]
            np.tanh(zr, out=zr)
            zr *= 0.5  # z r: 0.5 + 0.5 * tanh(z / 2)
            zr += 0.5
            n = np.tanh(xw[ti, :, 2 * u :] + (r * h) @ wh_n)
            h = (1.0 - z) * h + z * n
            if hs is not None:
                hs[:, ti] = h
        return h if hs is None else hs

    def backward(self, upstream, cache):
        x, steps = cache["x"], cache["steps"]
        b, t, ch = x.shape
        u = self.units
        wx, wh = self.params["wx"], self.params["wh"]
        seq = self.return_sequences
        dwx = np.zeros_like(wx)
        dwh = np.zeros_like(wh)
        db = np.zeros(3 * u)
        dx = np.empty_like(x)
        dh_next = np.zeros((b, u)) if seq else upstream  # only the last h is output
        for ti in range(t - 1, -1, -1):
            h_prev, z, r, n, rh = steps[ti]
            dh = dh_next + upstream[:, ti] if seq else dh_next
            dz_gate = dh * (n - h_prev)
            dn = dh * z
            dh_prev = dh * (1.0 - z)
            dn_pre = dn * (1.0 - n * n)
            drh = dn_pre @ wh[:, 2 * u :].T
            dr = drh * h_prev
            dh_prev += drh * r
            dzr = np.concatenate(
                [dz_gate * z * (1.0 - z), dr * r * (1.0 - r)], axis=1
            )
            dgates = np.concatenate([dzr, dn_pre], axis=1)
            dwx += x[:, ti].T @ dgates
            dwh[:, : 2 * u] += h_prev.T @ dzr
            dwh[:, 2 * u :] += rh.T @ dn_pre
            db += dgates.sum(axis=0)
            dx[:, ti] = dgates @ wx.T
            dh_next = dh_prev + dzr @ wh[:, : 2 * u].T
        return dx, {"wx": dwx, "wh": dwh, "b": db}


class Bidirectional(Subgraph):
    """Run a recurrent layer over both time directions and concatenate channels.

    The two directions hold independent parameters (``fwd_``/``bwd_``
    prefixes).  The backward direction consumes the reversed sequence; its
    per-step outputs are re-reversed before concatenation.
    """

    def __init__(self, inner: _Recurrent):
        if not isinstance(inner, _Recurrent):
            raise ParameterError("bidirectional wraps an LSTM or GRU layer")
        self.fwd = inner
        self.bwd = type(inner)(inner.units, inner.return_sequences)
        nodes = [NodeSpec("fwd", self.fwd, ["x"]),
                 NodeSpec("rev", ReverseTime(), ["x"]),
                 NodeSpec("bwd", self.bwd, ["rev"])]
        if inner.return_sequences:
            nodes.append(NodeSpec("bwd_rev", ReverseTime(), ["bwd"]))
        nodes.append(NodeSpec("cat", Concat(2), ["fwd", nodes[-1].name]))
        super().__init__(nodes)
        self.kind = "bilstm" if isinstance(inner, LSTM) else "bigru"
