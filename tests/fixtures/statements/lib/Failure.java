package stmt;

public class Failure {
    public Failure(int code) { }
}
