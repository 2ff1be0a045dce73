package repro.core

/** Maximum-weight bipartite matching (paper Sec. III-A, high-level
  * relevance): each chart data series is matched to at most one distinct
  * column so that the summed edge weight is maximised.
  *
  * Solved exactly by the Hungarian method with shortest augmenting paths
  * (Kuhn 1955; Jonker & Volgenant 1987) in O(n²·m) time for n rows and
  * m = max(rows, columns), at any table width.
  */
object Matching {

  /** Returns (total weight, assignment) where `assignment(i)` is the column
    * matched to row `i` or -1 if the row is left unmatched. Rows may stay
    * unmatched at weight 0 (more lines than columns is legal input).
    *
    * Only weights `> 0` are edges: a negative, zero or NaN weight is never
    * reported in the assignment. The total is `0.0 + w(i)(assign(i))`
    * summed over the matched rows in row order.
    */
  def maxWeight(w: Array[Array[Double]]): (Double, Array[Int]) = {
    val nR = w.length
    val nC = if (nR == 0) 0 else w(0).length
    // Columns nC until m are dummies: a row assigned to one stays unmatched.
    val m = math.max(nR, nC)
    def cost(i: Int, j: Int): Double =
      if (j < nC && w(i)(j) > 0) -w(i)(j) else 0.0
    // 1-based potentials; p(j) is the row (1-based, 0 = none) on column j,
    // and column 0 is the virtual root of each augmenting search.
    val u    = new Array[Double](nR + 1)
    val v    = new Array[Double](m + 1)
    val p    = new Array[Int](m + 1)
    val way  = new Array[Int](m + 1)
    val minv = new Array[Double](m + 1)
    val used = new Array[Boolean](m + 1)
    var i = 1
    while (i <= nR) {
      p(0) = i
      java.util.Arrays.fill(minv, Double.PositiveInfinity)
      java.util.Arrays.fill(used, false)
      var j0 = 0
      while (p(j0) != 0) {
        used(j0) = true
        val i0 = p(j0)
        var delta = Double.PositiveInfinity
        var j1 = 0
        var j = 1
        while (j <= m) {
          if (!used(j)) {
            val cur = cost(i0 - 1, j - 1) - u(i0) - v(j)
            if (cur < minv(j)) { minv(j) = cur; way(j) = j0 }
            if (minv(j) < delta) { delta = minv(j); j1 = j }
          }
          j += 1
        }
        j = 0
        while (j <= m) {
          if (used(j)) { u(p(j)) += delta; v(j) -= delta }
          else minv(j) -= delta
          j += 1
        }
        j0 = j1
      }
      while (j0 != 0) {
        val j1 = way(j0)
        p(j0) = p(j1)
        j0 = j1
      }
      i += 1
    }
    val assign = Array.fill(nR)(-1)
    var j = 1
    while (j <= nC) {
      if (p(j) != 0 && w(p(j) - 1)(j - 1) > 0) assign(p(j) - 1) = j - 1
      j += 1
    }
    var total = 0.0
    i = 0
    while (i < nR) {
      if (assign(i) >= 0) total += w(i)(assign(i))
      i += 1
    }
    (total, assign)
  }
}
