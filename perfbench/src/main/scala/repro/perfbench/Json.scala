package repro.perfbench

/** Minimal JSON writer for the benchmark's report and result lines. */
object Json {
  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number           => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}:${apply(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(apply).mkString("[", ",", "]")
    case p: Product if p.productArity > 0 =>
      apply(collection.immutable.ListMap(p.productElementNames.toSeq.zip(p.productIterator.toSeq): _*))
    case other               => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }
}
