package perfbench

/** Minimal JSON writer for the result line, the run stamp and span files. */
object Json {

  def render(v: Any): String = v match {
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case i: Int              => i.toString
    case l: Long             => l.toString
    case d: Double           => require(!d.isNaN && !d.isInfinite, s"non-finite JSON number $d"); d.toString
    case m: Map[_, _]        => m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case s: Seq[_]           => s.map(render).mkString("[", ", ", "]")
    case other               => quote(other.toString)
  }

  /** An object whose keys keep the given order. */
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, x) => quote(k) + ": " + render(x) }.mkString("{", ", ", "}")

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'           => b ++= "\\\""
      case '\\'          => b ++= "\\\\"
      case '\n'          => b ++= "\\n"
      case '\t'          => b ++= "\\t"
      case c if c < ' '  => b ++= f"\\u${c.toInt}%04x"
      case c             => b += c
    }
    b += '"'
    b.toString
  }
}

/** Order statistics used for every reported timing. */
object Stats {

  def median(xs: collection.Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile (the default of numpy and of Python's
    * `statistics.quantiles(..., method="inclusive")`).
    */
  def quantile(xs: collection.Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s   = xs.sorted
    val pos = q * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** Result of `f` and the seconds it took. */
  def secs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def mean(xs: collection.Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Median µs per call of `f` over `reps` timed calls after `warm` untimed ones. */
  def medianUs(reps: Int, warm: Int = 2)(f: => Any): Double = {
    var i = 0
    while (i < warm) { f; i += 1 }
    median(Seq.fill(reps) {
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e3
    })
  }
}
