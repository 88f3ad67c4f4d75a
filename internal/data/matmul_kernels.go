package data

// Register-blocked inner loops of the dense products (MatMul, MatMulT, TSMM).
//
// Every kernel keeps the reference contract of the plain ikj loop: an output
// cell starts at +0 and receives its terms av*bv in ascending k, and a term
// whose left factor av is exactly zero is skipped (so NaN/Inf on the right
// opposite a zero never reaches the cell). What the kernels change is how
// many *independent* cells are in flight per iteration and how often a cell
// travels through memory — neither is observable in the result, so outputs
// are bitwise-identical to the reference loop at every parallelism and for
// every blocking tail. Unrolled sums are written left-associated
// (((o + t0) + t1) + t2) + t3, which Go evaluates in exactly that order.

// axpy adds av*b[j] to every o[j].
func axpy(o, b []float64, av float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// accum4 adds four consecutive k terms to one output row, loading and
// storing each cell once. blk holds the four right-hand rows back to back
// (n cells each); o lines up with their cells from j0 on. A zero among the
// four left factors falls back to one guarded axpy per term, which is the
// reference loop itself.
func accum4(o, blk []float64, n, j0 int, a0, a1, a2, a3 float64) {
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		if a0 != 0 {
			axpy(o, blk[j0:n], a0)
		}
		if a1 != 0 {
			axpy(o, blk[n+j0:2*n], a1)
		}
		if a2 != 0 {
			axpy(o, blk[2*n+j0:3*n], a2)
		}
		if a3 != 0 {
			axpy(o, blk[3*n+j0:4*n], a3)
		}
		return
	}
	b0, b1, b2, b3 := blk[j0:n][:len(o)], blk[n+j0 : 2*n][:len(o)], blk[2*n+j0 : 3*n][:len(o)], blk[3*n+j0 : 4*n][:len(o)]
	for j := range o {
		o[j] = o[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// mmRows computes rows [lo,hi) of out = a*b for any width of b.
func mmRows(a, b, out *Matrix, lo, hi int) {
	kk, n := a.Cols, b.Cols
	bd := b.Data
	for i := lo; i < hi; i++ {
		ai := a.Data[i*kk : (i+1)*kk]
		oi := out.Data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= kk; k += 4 {
			accum4(oi, bd[k*n:(k+4)*n], n, 0, ai[k], ai[k+1], ai[k+2], ai[k+3])
		}
		for ; k < kk; k++ {
			if av := ai[k]; av != 0 {
				axpy(oi, bd[k*n:(k+1)*n], av)
			}
		}
	}
}

// mmRows1 computes rows [lo,hi) of out = a*x for a column vector x: four
// rows of a advance together, one register accumulator each.
func mmRows1(a *Matrix, x, out []float64, lo, hi int) {
	kk := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := a.Data[i*kk:][:len(x)]
		r1 := a.Data[(i+1)*kk:][:len(x)]
		r2 := a.Data[(i+2)*kk:][:len(x)]
		r3 := a.Data[(i+3)*kk:][:len(x)]
		var s0, s1, s2, s3 float64
		for k, xv := range x {
			if v := r0[k]; v != 0 {
				s0 += v * xv
			}
			if v := r1[k]; v != 0 {
				s1 += v * xv
			}
			if v := r2[k]; v != 0 {
				s2 += v * xv
			}
			if v := r3[k]; v != 0 {
				s3 += v * xv
			}
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		r0 := a.Data[i*kk:][:len(x)]
		var s0 float64
		for k, xv := range x {
			if v := r0[k]; v != 0 {
				s0 += v * xv
			}
		}
		out[i] = s0
	}
}

// mmRows2 computes rows [lo,hi) of out = a*b for a two-column b: two rows
// of a by two columns of b, four register accumulators.
func mmRows2(a *Matrix, bd, out []float64, lo, hi int) {
	kk := a.Cols
	bd = bd[:2*kk]
	i := lo
	for ; i+2 <= hi; i += 2 {
		r0 := a.Data[i*kk:][:kk]
		r1 := a.Data[(i+1)*kk:][:kk]
		var s00, s01, s10, s11 float64
		for k := range r0 {
			b0, b1 := bd[2*k], bd[2*k+1]
			if v := r0[k]; v != 0 {
				s00 += v * b0
				s01 += v * b1
			}
			if v := r1[k]; v != 0 {
				s10 += v * b0
				s11 += v * b1
			}
		}
		out[2*i], out[2*i+1], out[2*i+2], out[2*i+3] = s00, s01, s10, s11
	}
	if i < hi {
		r0 := a.Data[i*kk:][:kk]
		var s0, s1 float64
		for k, v := range r0 {
			if v != 0 {
				s0 += v * bd[2*k]
				s1 += v * bd[2*k+1]
			}
		}
		out[2*i], out[2*i+1] = s0, s1
	}
}

// mmRows3 computes rows [lo,hi) of out = a*b for a three-column b, one row
// of a by three register accumulators.
func mmRows3(a *Matrix, bd, out []float64, lo, hi int) {
	kk := a.Cols
	bd = bd[:3*kk]
	for i := lo; i < hi; i++ {
		var s0, s1, s2 float64
		for k, v := range a.Data[i*kk:][:kk] {
			if v != 0 {
				s0 += v * bd[3*k]
				s1 += v * bd[3*k+1]
				s2 += v * bd[3*k+2]
			}
		}
		out[3*i], out[3*i+1], out[3*i+2] = s0, s1, s2
	}
}

// mmRows4 computes rows [lo,hi) of out = a*b for a four-column b, one row
// of a by four register accumulators.
func mmRows4(a *Matrix, bd, out []float64, lo, hi int) {
	kk := a.Cols
	bd = bd[:4*kk]
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for k, v := range a.Data[i*kk:][:kk] {
			if v != 0 {
				s0 += v * bd[4*k]
				s1 += v * bd[4*k+1]
				s2 += v * bd[4*k+2]
				s3 += v * bd[4*k+3]
			}
		}
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = s0, s1, s2, s3
	}
}

// mmtBand computes rows [lo,hi) of out = a^T * b by streaming the rows of a
// (the k dimension) four at a time; output row i reads column i of a. With
// upper set only cells j >= i are produced (TSMM's triangle, where b is a).
func mmtBand(a, b, out *Matrix, lo, hi int, upper bool) {
	p, n := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	r := 0
	for ; r+4 <= a.Rows; r += 4 {
		a0, a1, a2, a3 := ad[r*p:(r+1)*p], ad[(r+1)*p:(r+2)*p], ad[(r+2)*p:(r+3)*p], ad[(r+3)*p:(r+4)*p]
		blk := bd[r*n : (r+4)*n]
		for i := lo; i < hi; i++ {
			j0 := 0
			if upper {
				j0 = i
			}
			accum4(out.Data[i*n+j0:(i+1)*n], blk, n, j0, a0[i], a1[i], a2[i], a3[i])
		}
	}
	for ; r < a.Rows; r++ {
		ar, br := ad[r*p:(r+1)*p], bd[r*n:(r+1)*n]
		for i := lo; i < hi; i++ {
			j0 := 0
			if upper {
				j0 = i
			}
			if av := ar[i]; av != 0 {
				axpy(out.Data[i*n+j0:(i+1)*n], br[j0:], av)
			}
		}
	}
}

// mmtBand1 computes cells [lo,hi) of out = a^T * y for a column vector y:
// each cell is loaded once, takes four guarded terms, and is stored once;
// consecutive cells are independent, so their chains overlap.
func mmtBand1(a *Matrix, y, out []float64, lo, hi int) {
	p := a.Cols
	ad := a.Data
	o := out[lo:hi]
	r := 0
	for ; r+4 <= a.Rows; r += 4 {
		a0 := ad[r*p+lo:][:len(o)]
		a1 := ad[(r+1)*p+lo:][:len(o)]
		a2 := ad[(r+2)*p+lo:][:len(o)]
		a3 := ad[(r+3)*p+lo:][:len(o)]
		y0, y1, y2, y3 := y[r], y[r+1], y[r+2], y[r+3]
		for i := range o {
			s := o[i]
			if v := a0[i]; v != 0 {
				s += v * y0
			}
			if v := a1[i]; v != 0 {
				s += v * y1
			}
			if v := a2[i]; v != 0 {
				s += v * y2
			}
			if v := a3[i]; v != 0 {
				s += v * y3
			}
			o[i] = s
		}
	}
	for ; r < a.Rows; r++ {
		ar := ad[r*p+lo:][:len(o)]
		yr := y[r]
		for i := range o {
			if v := ar[i]; v != 0 {
				o[i] += v * yr
			}
		}
	}
}

// mmtBand2 is mmtBand1 for a two-column b: two cells per column of a.
func mmtBand2(a *Matrix, bd, out []float64, lo, hi int) {
	p := a.Cols
	ad := a.Data
	o := out[2*lo : 2*hi]
	w := hi - lo
	r := 0
	for ; r+4 <= a.Rows; r += 4 {
		a0 := ad[r*p+lo:][:w]
		a1 := ad[(r+1)*p+lo:][:w]
		a2 := ad[(r+2)*p+lo:][:w]
		a3 := ad[(r+3)*p+lo:][:w]
		br := bd[2*r:][:8]
		for i := range a0 {
			s0, s1 := o[2*i], o[2*i+1]
			if v := a0[i]; v != 0 {
				s0 += v * br[0]
				s1 += v * br[1]
			}
			if v := a1[i]; v != 0 {
				s0 += v * br[2]
				s1 += v * br[3]
			}
			if v := a2[i]; v != 0 {
				s0 += v * br[4]
				s1 += v * br[5]
			}
			if v := a3[i]; v != 0 {
				s0 += v * br[6]
				s1 += v * br[7]
			}
			o[2*i], o[2*i+1] = s0, s1
		}
	}
	for ; r < a.Rows; r++ {
		ar := ad[r*p+lo:][:w]
		b0, b1 := bd[2*r], bd[2*r+1]
		for i, v := range ar {
			if v != 0 {
				o[2*i] += v * b0
				o[2*i+1] += v * b1
			}
		}
	}
}
